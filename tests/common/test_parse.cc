#include <gtest/gtest.h>

#include <cstdint>
#include <limits>

#include "common/parse.hh"

namespace mtp {
namespace {

using ::testing::ExitedWithCode;

constexpr double kMax = std::numeric_limits<double>::max();

TEST(Parse, UintAcceptsDecimalAndHex)
{
    struct Case
    {
        const char *text;
        std::uint64_t value;
    };
    for (const Case &c : {Case{"0", 0}, Case{"14", 14}, Case{"010", 10},
                          Case{"0x10", 16}, Case{"0xfF", 255},
                          Case{"0x620000000", 0x620000000ull},
                          Case{"18446744073709551615", UINT64_MAX}})
        EXPECT_EQ(parseUint("key", c.text, 0, UINT64_MAX), c.value)
            << c.text;
    EXPECT_EQ(parseUint("key", "4", 4, 4), 4u);
}

TEST(Parse, UintRejectsNamingContextAndRange)
{
    for (const char *bad :
         {"", "-1", "+1", " 1", "1 ", "1x", "0x", "0x-1", "0X10", "abc",
          "1.5", "18446744073709551616", "99999999999999999999"}) {
        EXPECT_EXIT(parseUint("numCores", bad, 0, UINT64_MAX),
                    ExitedWithCode(1), "numCores expects an integer in")
            << "'" << bad << "'";
    }
    EXPECT_EXIT(parseUint("--jobs", "1025", 1, 1024), ExitedWithCode(1),
                "--jobs expects an integer in \\[1, 1024\\], got '1025'");
    EXPECT_EXIT(parseUint("--jobs", "0", 1, 1024), ExitedWithCode(1),
                "--jobs");
}

TEST(Parse, IntAcceptsSignedDecimalAndHex)
{
    struct Case
    {
        const char *text;
        std::int64_t value;
    };
    for (const Case &c :
         {Case{"0", 0}, Case{"-0", 0}, Case{"-4", -4}, Case{"127", 127},
          Case{"-0x10", -16}, Case{"-010", -10},
          Case{"9223372036854775807", INT64_MAX},
          Case{"-9223372036854775808", INT64_MIN}})
        EXPECT_EQ(parseInt("slot", c.text, INT64_MIN, INT64_MAX), c.value)
            << c.text;
}

TEST(Parse, IntRejectsNamingContextAndRange)
{
    for (const char *bad :
         {"", "-", "--1", "+1", " -1", "-1 ", "1e3",
          "9223372036854775808", "-9223372036854775809"}) {
        EXPECT_EXIT(parseInt("k.mtk:3", bad, INT64_MIN, INT64_MAX),
                    ExitedWithCode(1), "k\\.mtk:3 expects an integer in")
            << "'" << bad << "'";
    }
    EXPECT_EXIT(parseInt("k.mtk:3", "128", INT8_MIN, INT8_MAX),
                ExitedWithCode(1), "\\[-128, 127\\], got '128'");
    EXPECT_EXIT(parseInt("k.mtk:3", "-129", INT8_MIN, INT8_MAX),
                ExitedWithCode(1), "k\\.mtk:3");
}

TEST(Parse, RealAcceptsFiniteDecimal)
{
    struct Case
    {
        const char *text;
        double value;
    };
    for (const Case &c : {Case{"0", 0.0}, Case{"2.5", 2.5},
                          Case{"-0.25", -0.25}, Case{".5", 0.5},
                          Case{"1e-05", 1e-05}, Case{"15", 15.0},
                          Case{"1.5E2", 150.0}})
        EXPECT_DOUBLE_EQ(parseReal("x", c.text, -kMax, kMax), c.value)
            << c.text;
}

TEST(Parse, RealRejectsNonFiniteAndOutOfRange)
{
    for (const char *bad :
         {"", "x", "nan", "-nan", "inf", "-inf", "1e999", "+1", " 1",
          "1 ", "3s", "0x1p3", "1..2"}) {
        EXPECT_EXIT(parseReal("--gate", bad, -kMax, kMax),
                    ExitedWithCode(1), "--gate expects a number in")
            << "'" << bad << "'";
    }
    EXPECT_EXIT(parseReal("--tol-rel", "-1", 0.0, kMax),
                ExitedWithCode(1), "--tol-rel expects a number in \\[0, ");
}

} // namespace
} // namespace mtp
