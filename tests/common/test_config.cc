#include <gtest/gtest.h>

#include <sstream>

#include "common/config.hh"

namespace mtp {
namespace {

TEST(Config, DefaultsMatchTableII)
{
    SimConfig cfg;
    EXPECT_EQ(cfg.numCores, 14u);
    EXPECT_EQ(cfg.latencyImul, 16u);
    EXPECT_EQ(cfg.latencyFdiv, 32u);
    EXPECT_EQ(cfg.latencyOther, 4u);
    EXPECT_EQ(cfg.decodeCycles, 5u);
    EXPECT_EQ(cfg.icntLatency, 20u);
    EXPECT_EQ(cfg.icntCoresPerPort, 2u);
    EXPECT_EQ(cfg.dramChannels, 8u);
    EXPECT_EQ(cfg.dramBanks * cfg.dramChannels, 16u); // 16 banks total
    EXPECT_EQ(cfg.dramRowBytes, 2048u);
    EXPECT_EQ(cfg.dramTCL, 11u);
    EXPECT_EQ(cfg.dramTRCD, 11u);
    EXPECT_EQ(cfg.dramTRP, 13u);
    EXPECT_EQ(cfg.prefCacheBytes, 16u * 1024);
    EXPECT_EQ(cfg.prefCacheAssoc, 8u);
    // 8 B/cycle x 8 channels x 900 MHz = 57.6 GB/s
    EXPECT_EQ(cfg.dramBusBytesPerCycle * cfg.dramChannels * 900u,
              57600u);
    EXPECT_EQ(cfg.prefDistance, 1u);
    EXPECT_EQ(cfg.prefDegree, 1u);
    EXPECT_EQ(cfg.throttlePeriod, 100000u);
    EXPECT_EQ(cfg.throttleInitDegree, 2u);
    EXPECT_NO_THROW(cfg.validate());
}

TEST(Config, ApplyOverride)
{
    SimConfig cfg;
    cfg.applyOverride("numCores=20");
    EXPECT_EQ(cfg.numCores, 20u);
    cfg.applyOverride("hwPref=mthwp");
    EXPECT_EQ(cfg.hwPref, HwPrefKind::MTHWP);
    cfg.applyOverride("throttleEnable=true");
    EXPECT_TRUE(cfg.throttleEnable);
    cfg.applyOverride("earlyEvictHigh=0.5");
    EXPECT_DOUBLE_EQ(cfg.earlyEvictHigh, 0.5);
    cfg.applyOverrides({"prefDistance=3", "prefDegree=2"});
    EXPECT_EQ(cfg.prefDistance, 3u);
    EXPECT_EQ(cfg.prefDegree, 2u);
}

TEST(Config, OverrideRejectsWrappedAndNonFiniteValues)
{
    for (const char *kv : {"numCores=-1", "numCores=4294967310",
                           "numCores=", "numCores= 14", "numCores=+14",
                           "maxCycles=18446744073709551616"}) {
        SimConfig cfg;
        EXPECT_EXIT(cfg.applyOverride(kv), ::testing::ExitedWithCode(1),
                    std::string(kv).substr(0, std::string(kv).find('=')))
            << kv;
    }
    for (const char *kv : {"earlyEvictHigh=nan", "earlyEvictHigh=inf",
                           "earlyEvictHigh=1e999", "earlyEvictHigh=0.5x"}) {
        SimConfig cfg;
        EXPECT_EXIT(cfg.applyOverride(kv), ::testing::ExitedWithCode(1),
                    "earlyEvictHigh")
            << kv;
    }
}

TEST(Config, OverrideKeepsTheFullFieldRange)
{
    SimConfig cfg;
    cfg.applyOverride("numCores=4294967295");
    EXPECT_EQ(cfg.numCores, 4294967295u);
    cfg.applyOverride("maxCycles=0x10");
    EXPECT_EQ(cfg.maxCycles, 16u);
    cfg.applyOverride("earlyEvictLow=-0.25");
    EXPECT_DOUBLE_EQ(cfg.earlyEvictLow, -0.25);
}

TEST(Config, DeadKeysAreGone)
{
    for (const char *kv : {"seed=1", "simdWidth=8", "fetchWidth=1",
                           "sharedMemBytes=16384"}) {
        SimConfig cfg;
        EXPECT_EXIT(cfg.applyOverride(kv), ::testing::ExitedWithCode(1),
                    "unknown config key")
            << kv;
    }
}

TEST(Config, ParseKinds)
{
    EXPECT_EQ(parseHwPrefKind("stride_pc"), HwPrefKind::StridePC);
    EXPECT_EQ(parseHwPrefKind("ghb"), HwPrefKind::GHB);
    EXPECT_EQ(parseHwPrefKind("mthwp"), HwPrefKind::MTHWP);
    EXPECT_EQ(parseSwPrefKind("stride_ip"), SwPrefKind::StrideIP);
    EXPECT_EQ(parseSwPrefKind("register"), SwPrefKind::Register);
    EXPECT_EQ(toString(HwPrefKind::Stream), "stream");
    EXPECT_EQ(toString(SwPrefKind::IP), "ip");
}

TEST(Config, RoundTripThroughStrings)
{
    for (auto kind : {HwPrefKind::None, HwPrefKind::StrideRPT,
                      HwPrefKind::StridePC, HwPrefKind::Stream,
                      HwPrefKind::GHB, HwPrefKind::MTHWP})
        EXPECT_EQ(parseHwPrefKind(toString(kind)), kind);
    for (auto kind : {SwPrefKind::None, SwPrefKind::Register,
                      SwPrefKind::Stride, SwPrefKind::IP,
                      SwPrefKind::StrideIP})
        EXPECT_EQ(parseSwPrefKind(toString(kind)), kind);
}

TEST(Config, DumpContainsKeys)
{
    SimConfig cfg;
    std::ostringstream os;
    cfg.dump(os);
    EXPECT_NE(os.str().find("numCores = 14"), std::string::npos);
    EXPECT_NE(os.str().find("hwPref = none"), std::string::npos);
}

} // namespace
} // namespace mtp
