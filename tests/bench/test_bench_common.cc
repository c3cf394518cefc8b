#include <gtest/gtest.h>

#include <limits>

#include "bench/bench_common.hh"

namespace mtp {
namespace bench {
namespace {

TEST(BenchCommon, GeomeanBasics)
{
    EXPECT_DOUBLE_EQ(geomean({}), 1.0);
    EXPECT_DOUBLE_EQ(geomean({2.0}), 2.0);
    EXPECT_NEAR(geomean({1.0, 4.0}), 2.0, 1e-12);
    EXPECT_NEAR(geomean({0.5, 2.0}), 1.0, 1e-12);
}

TEST(BenchCommon, ParseArgs)
{
    const char *argv[] = {"prog",        "--scale",     "4",
                          "--bench",     "monte,stream", "--jobs",
                          "3",           "numCores=10"};
    Options opts = parseArgs(8, const_cast<char **>(argv));
    EXPECT_EQ(opts.scaleDiv, 4u);
    EXPECT_EQ(opts.jobs, 3u);
    ASSERT_EQ(opts.benchmarks.size(), 2u);
    EXPECT_EQ(opts.benchmarks[0], "monte");
    EXPECT_EQ(opts.benchmarks[1], "stream");
    ASSERT_EQ(opts.overrides.size(), 1u);
    SimConfig cfg = baseConfig(opts);
    EXPECT_EQ(cfg.numCores, 10u);
    // The throttle period scales with the grid divisor.
    EXPECT_EQ(cfg.throttlePeriod, 10000u);
}

/** parseArgs on a flag and its value only. */
Options
parseFlag(const char *flag, const char *value)
{
    const char *argv[] = {"prog", flag, value};
    return parseArgs(3, const_cast<char **>(argv));
}

TEST(BenchCommon, ParseArgsRejectsBadNumbersNamingTheFlag)
{
    using ::testing::ExitedWithCode;
    for (const char *bad : {"abc", "", "-1", "+4", " 4", "4x", "0",
                            "4294967297", "99999999999999999999"}) {
        EXPECT_EXIT(parseFlag("--scale", bad), ExitedWithCode(1),
                    "--scale")
            << "'" << bad << "'";
    }
    for (const char *bad : {"-1", "0", "x", "1025", "4294967295"}) {
        EXPECT_EXIT(parseFlag("--jobs", bad), ExitedWithCode(1),
                    "--jobs")
            << "'" << bad << "'";
    }
}

TEST(BenchCommon, ParseArgsAcceptsNumericBounds)
{
    EXPECT_EQ(parseFlag("--scale", "4294967295").scaleDiv, 4294967295u);
    EXPECT_EQ(parseFlag("--jobs", "1024").jobs, driver::kMaxJobs);
}

TEST(BenchCommon, TraceOutIsNotAHarnessFlag)
{
    EXPECT_EXIT(parseFlag("--trace-out", "t.json"),
                ::testing::ExitedWithCode(1),
                "unknown argument '--trace-out'");
}

/** Harness runs are never observed; only mtp-sim samples. */
TEST(BenchCommon, SamplePeriodIsNotAHarnessFlag)
{
    EXPECT_EXIT(parseFlag("--sample-period", "5"),
                ::testing::ExitedWithCode(1),
                "unknown argument '--sample-period'");
}

TEST(BenchCommon, ThrottlePeriodScalesWithTheGrid)
{
    EXPECT_EQ(Options().throttlePeriod, 5000u);
    EXPECT_EQ(scaledThrottlePeriod(1), 40000u);
    EXPECT_EQ(scaledThrottlePeriod(8), 5000u);
    EXPECT_EQ(scaledThrottlePeriod(32), 1250u);
    EXPECT_EQ(scaledThrottlePeriod(64), 1000u); // floor, not 625
    EXPECT_EQ(parseFlag("--scale", "16").throttlePeriod, 2500u);
}

/** --watchdog-sec as mtp-sim and mtp-campaign read it. */
double
watchdogSec(const char *text)
{
    return parseReal("--watchdog-sec", text, 0.0,
                     std::numeric_limits<double>::max());
}

TEST(BenchCommon, ParseSecondsRejectsNonNumbers)
{
    EXPECT_DOUBLE_EQ(watchdogSec("2.5"), 2.5);
    EXPECT_DOUBLE_EQ(watchdogSec("0"), 0.0);
    for (const char *bad : {"x", "", "-1", "nan", "inf", "1e999", "3s"}) {
        EXPECT_EXIT(watchdogSec(bad),
                    ::testing::ExitedWithCode(1), "--watchdog-sec")
            << "'" << bad << "'";
    }
}

TEST(BenchCommon, SelectBenchmarksFallsBack)
{
    Options opts;
    auto names = selectBenchmarks(opts, {"a", "b"});
    ASSERT_EQ(names.size(), 2u);
    opts.benchmarks = {"monte"};
    names = selectBenchmarks(opts, {"a", "b"});
    ASSERT_EQ(names.size(), 1u);
    EXPECT_EQ(names[0], "monte");
}

TEST(BenchCommon, SweepSubsetCoversAllClasses)
{
    bool stride = false, mp = false, uncoal = false;
    for (const auto &name : sweepSubset()) {
        Workload w = Suite::get(name, 64);
        stride = stride || w.info.type == WorkloadType::Stride;
        mp = mp || w.info.type == WorkloadType::Mp;
        uncoal = uncoal || w.info.type == WorkloadType::Uncoal;
    }
    EXPECT_TRUE(stride);
    EXPECT_TRUE(mp);
    EXPECT_TRUE(uncoal);
}

TEST(BenchCommon, RunnerCachesIdenticalRuns)
{
    Options opts;
    opts.scaleDiv = 64;
    opts.jobs = 2;
    Runner runner(opts);
    Workload w = Suite::get("cell", opts.scaleDiv);
    RunFuture a = runner.submit(baseConfig(opts), w.kernel);
    RunFuture b = runner.submit(baseConfig(opts), w.kernel);
    EXPECT_EQ(&a.get(), &b.get()); // same cached object
    EXPECT_EQ(runner.cacheMisses(), 1u);
    EXPECT_EQ(runner.cacheHits(), 1u);

    // A config that differs only in an ablation toggle must NOT hit
    // the cache (regression test for the Fig. 14 cache-key bug).
    SimConfig cfg = baseConfig(opts);
    cfg.hwPref = HwPrefKind::MTHWP;
    SimConfig ablated = cfg;
    ablated.mthwpIp = false;
    RunFuture full = runner.submit(cfg, w.kernel);
    RunFuture pws = runner.submit(ablated, w.kernel);
    EXPECT_NE(&full.get(), &pws.get());
    EXPECT_EQ(runner.cacheMisses(), 3u);
    EXPECT_EQ(runner.fingerprints().size(), 3u);
}

} // namespace
} // namespace bench
} // namespace mtp
