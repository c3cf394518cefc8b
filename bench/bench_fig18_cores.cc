/**
 * @file
 * Figure 18: sensitivity to the number of cores (8 to 20, DRAM
 * bandwidth held constant) for MT-HWP and MT-SWP with and without
 * throttling; geometric-mean speedup over the same-core-count
 * no-prefetching baseline.
 */

#include "bench/harnesses.hh"

namespace mtp {
namespace bench {
namespace {

FigureResult
run(Runner &runner, const Options &opts)
{
    auto names = selectBenchmarks(opts, sweepSubset());

    const unsigned coreCounts[] = {8, 10, 12, 14, 16, 18, 20};
    // Submit the whole core-count sweep up front so the runs overlap:
    // per core count the same-core-count baseline and the [throttle]
    // cells.
    struct Row
    {
        RunFuture base[7];
        RunFuture sw[7][2];
        RunFuture hw[7][2];
    };
    std::vector<Row> rows;
    for (const auto &name : names) {
        Workload w = Suite::get(name, opts.scaleDiv);
        KernelDesc swp = w.variant(SwPrefKind::StrideIP);
        Row row;
        for (unsigned c = 0; c < 7; ++c) {
            SimConfig base_cfg = baseConfig(opts);
            base_cfg.numCores = coreCounts[c];
            row.base[c] = runner.submit(base_cfg, w.kernel);
            for (bool throttle : {false, true}) {
                SimConfig cfg = base_cfg;
                cfg.throttleEnable = throttle;
                row.sw[c][throttle] = runner.submit(cfg, swp);
                cfg.hwPref = HwPrefKind::MTHWP;
                row.hw[c][throttle] = runner.submit(cfg, w.kernel);
            }
        }
        rows.push_back(std::move(row));
    }

    FigureResult out;
    Table t;
    t.name = "core-sweep";
    t.columns = {"cores", "mthwp", "mthwp+T", "mtswp", "mtswp+T"};
    for (unsigned c = 0; c < 7; ++c) {
        unsigned cores = coreCounts[c];
        std::vector<double> hw, hwt, sw, swt;
        for (const Row &row : rows) {
            hw.push_back(speedup(row.base[c], row.hw[c][0]));
            hwt.push_back(speedup(row.base[c], row.hw[c][1]));
            sw.push_back(speedup(row.base[c], row.sw[c][0]));
            swt.push_back(speedup(row.base[c], row.sw[c][1]));
        }
        t.addRow({Cell::number(cores, 0), Cell::number(geomean(hw), 3),
                  Cell::number(geomean(hwt), 3),
                  Cell::number(geomean(sw), 3),
                  Cell::number(geomean(swt), 3)});
        if (cores == 14) {
            out.metric("geomean.14.mthwp+T", geomean(hwt));
            out.metric("geomean.14.mtswp+T", geomean(swt));
        }
    }
    out.tables.push_back(std::move(t));
    std::string used = "benchmarks:";
    for (const auto &n : names)
        used += " " + n;
    out.notes.push_back(used);
    out.notes.push_back("paper shape: benefits shrink slightly as "
                        "cores grow (more contention for the fixed "
                        "57.6 GB/s) but prefetching stays profitable "
                        "through 20 cores");
    return out;
}

} // namespace

CampaignSpec
specFig18Cores()
{
    return {"fig18_cores",
            "Core-count sensitivity (fixed DRAM bandwidth)",
            "Fig. 18", &run};
}

} // namespace bench
} // namespace mtp
