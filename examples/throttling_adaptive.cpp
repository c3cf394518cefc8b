/**
 * @file
 * Watch the adaptive throttle engine (Sec. V) work: run a benchmark
 * whose prefetches are chronically late (streamcluster) and one where
 * prefetching is healthy (monte), with and without the engine, and
 * show the final metrics and throttle degrees per core.
 *
 * To stream the per-period decisions as JSONL, run for example
 * `mtp-sim --bench streamcluster --hw mthwp --throttle --events
 * /dev/stderr` and keep the "throttle:update" lines.
 */

#include <cstdio>
#include <string>

#include "mtprefetch/mtprefetch.hh"

namespace {

void
runCase(const std::string &bench, mtp::SimConfig cfg)
{
    mtp::Workload w = mtp::Suite::get(bench, /*scaleDiv=*/8);
    mtp::RunResult base = mtp::simulate(cfg, w.kernel);

    mtp::SimConfig pref_cfg = cfg;
    pref_cfg.hwPref = mtp::HwPrefKind::MTHWP;
    mtp::RunResult pref = mtp::simulate(pref_cfg, w.kernel);

    mtp::SimConfig thr_cfg = pref_cfg;
    thr_cfg.throttleEnable = true;
    mtp::RunResult thr = mtp::simulate(thr_cfg, w.kernel);

    std::printf("\n=== %s ===\n", bench.c_str());
    std::printf("  baseline    %8llu cycles\n",
                static_cast<unsigned long long>(base.cycles));
    std::printf("  MT-HWP      %8llu cycles (speedup %.3f, late %.0f%%, "
                "early %.0f%%)\n",
                static_cast<unsigned long long>(pref.cycles),
                static_cast<double>(base.cycles) / pref.cycles,
                100.0 * pref.lateRatio(), 100.0 * pref.earlyRatio());
    std::printf("  MT-HWP+T    %8llu cycles (speedup %.3f)\n",
                static_cast<unsigned long long>(thr.cycles),
                static_cast<double>(base.cycles) / thr.cycles);
    std::printf("  throttle state per core (0=all prefetches, 5=none):");
    for (unsigned c = 0; c < thr_cfg.numCores; ++c) {
        double degree = thr.stats.getOr(
            "core" + std::to_string(c) + ".throttle.degree", -1);
        std::printf(" %d", static_cast<int>(degree));
    }
    std::printf("\n  final metrics (core0): early rate %.3f, merge "
                "ratio %.3f, dropped %d%%\n",
                thr.stats.getOr("core0.throttle.earlyRate", 0.0),
                thr.stats.getOr("core0.throttle.mergeRatio", 0.0),
                static_cast<int>(
                    100.0 * thr.stats.getOr("core0.throttle.dropped", 0) /
                    std::max(1.0,
                             thr.stats.getOr("core0.throttle.dropped",
                                             0) +
                                 thr.stats.getOr(
                                     "core0.throttle.allowed", 0))));
}

} // namespace

int
main(int argc, char **argv)
{
    mtp::SimConfig cfg;
    cfg.throttlePeriod = 5000; // scaled grids, scaled period
    for (int i = 1; i < argc; ++i)
        cfg.applyOverride(argv[i]);

    std::printf("Adaptive prefetch throttling (Table I heuristics)\n");
    runCase("stream", cfg); // harmful prefetching: engine backs off
    runCase("monte", cfg);  // healthy prefetching: engine opens up
    return 0;
}
