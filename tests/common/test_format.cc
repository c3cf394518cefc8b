/**
 * @file
 * The one number writer and JSON string escaper (common/format.hh):
 * exact spellings for representative values, and a seeded round trip
 * through the project's own JSON reader that must return the same bits.
 */

#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "common/format.hh"
#include "obs/json.hh"

namespace mtp {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

std::string
jsonNumber(double v)
{
    std::string out;
    appendJsonNumber(out, v);
    return out;
}

TEST(Format, ShortestRoundTripSpellings)
{
    struct Case
    {
        double value;
        const char *text;
    };
    for (const Case &c : {Case{0.0, "0"}, Case{-0.0, "-0"},
                          Case{20.0, "20"}, Case{1e5, "1e+05"},
                          Case{1e-7, "1e-07"}, Case{0.1, "0.1"},
                          Case{1.0 / 3.0, "0.3333333333333333"},
                          Case{DBL_MAX, "1.7976931348623157e+308"},
                          Case{std::numeric_limits<double>::denorm_min(),
                               "5e-324"}}) {
        EXPECT_EQ(formatNumber(c.value), c.text) << c.text;
        EXPECT_EQ(jsonNumber(c.value), c.text) << c.text;
    }
}

TEST(Format, NonFiniteIsNullInJsonOnly)
{
    for (double v : {kNaN, kInf, -kInf})
        EXPECT_EQ(jsonNumber(v), "null") << formatNumber(v);
    EXPECT_EQ(formatNumber(kInf), "inf");
    EXPECT_EQ(formatNumber(-kInf), "-inf");
    EXPECT_EQ(formatNumber(kNaN), "nan");
}

TEST(Format, StringArrayLayout)
{
    std::string out;
    appendJsonStringArray(out, {}, 1);
    EXPECT_EQ(out, "[]");
    out.clear();
    appendJsonStringArray(out, {"a", "b\n"}, 1);
    EXPECT_EQ(out, "[\n    \"a\",\n    \"b\\n\"\n  ]");
}

TEST(JsonEscape, PassesPlainTextThrough)
{
    EXPECT_EQ(jsonEscape("core0.ipc"), "core0.ipc");
    EXPECT_EQ(jsonEscape(""), "");
}

TEST(JsonEscape, EscapesSpecials)
{
    EXPECT_EQ(jsonEscape("a\"b"), "a\\\"b");
    EXPECT_EQ(jsonEscape("a\\b"), "a\\\\b");
    EXPECT_EQ(jsonEscape("a\nb"), "a\\nb");
    EXPECT_EQ(jsonEscape("a\tb"), "a\\tb");
    EXPECT_EQ(jsonEscape(std::string(1, '\x01')), "\\u0001");
}

/**
 * Property: every finite double and every byte 0x01-0x7f survive the
 * writer followed by obs::parseJson bit for bit. The doubles are fixed-
 * seed random bit patterns, so they span every exponent, subnormals and
 * both zeros; non-finite patterns are skipped, not remapped.
 */
TEST(Format, JsonRoundTripIsBitExact)
{
    std::mt19937_64 rng(0x5eed);
    std::vector<double> values;
    while (values.size() < 100000) {
        std::uint64_t bits = rng();
        double v;
        std::memcpy(&v, &bits, sizeof v);
        if (std::isfinite(v))
            values.push_back(v);
    }
    std::string doc = "[";
    for (std::size_t i = 0; i < values.size(); ++i) {
        if (i)
            doc += ',';
        appendJsonNumber(doc, values[i]);
    }
    doc += ']';
    obs::JsonValue parsed;
    std::string err;
    ASSERT_TRUE(obs::parseJson(doc, parsed, &err)) << err;
    ASSERT_EQ(parsed.array.size(), values.size());
    std::size_t mismatches = 0;
    for (std::size_t i = 0; i < values.size(); ++i) {
        std::uint64_t want, got;
        std::memcpy(&want, &values[i], sizeof want);
        std::memcpy(&got, &parsed.array[i].number, sizeof got);
        if (want != got && ++mismatches <= 5)
            ADD_FAILURE() << formatNumber(values[i]) << " read back as "
                          << formatNumber(parsed.array[i].number);
    }
    EXPECT_EQ(mismatches, 0u);

    std::string bytes;
    for (int c = 0x01; c <= 0x7f; ++c)
        bytes += static_cast<char>(c);
    std::string text;
    appendJsonString(text, bytes);
    obs::JsonValue str;
    ASSERT_TRUE(obs::parseJson(text, str, &err)) << err;
    ASSERT_TRUE(str.isString());
    EXPECT_EQ(str.str, bytes);
}

} // namespace
} // namespace mtp
