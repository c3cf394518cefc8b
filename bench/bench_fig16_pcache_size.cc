/**
 * @file
 * Figure 16: sensitivity to prefetch cache size, 1 KB to 128 KB, for
 * MT-HWP and MT-SWP with and without throttling (geometric-mean
 * speedup over the no-prefetching baseline). Uses the cross-class
 * sweep subset by default; pass --bench to widen.
 */

#include "bench/harnesses.hh"

namespace mtp {
namespace bench {
namespace {

SimConfig
configFor(const Options &opts, unsigned kb, bool hw_pref, bool throttle)
{
    SimConfig cfg = baseConfig(opts);
    cfg.prefCacheBytes = kb * 1024;
    cfg.throttleEnable = throttle;
    if (hw_pref)
        cfg.hwPref = HwPrefKind::MTHWP;
    return cfg;
}

FigureResult
run(Runner &runner, const Options &opts)
{
    auto names = selectBenchmarks(opts, sweepSubset());
    const unsigned sizesKb[] = {1, 2, 4, 8, 16, 32, 64, 128};
    // Submit the whole size sweep up front so the runs overlap:
    // [size][throttle] cells per benchmark.
    struct Row
    {
        RunFuture base;
        RunFuture hw[8][2];
        RunFuture sw[8][2];
    };
    std::vector<Row> rows;
    for (const auto &name : names) {
        Workload w = Suite::get(name, opts.scaleDiv);
        KernelDesc swp = w.variant(SwPrefKind::StrideIP);
        Row row{runner.submit(baseConfig(opts), w.kernel), {}, {}};
        for (unsigned k = 0; k < 8; ++k) {
            for (bool throttle : {false, true}) {
                row.hw[k][throttle] = runner.submit(
                    configFor(opts, sizesKb[k], true, throttle), w.kernel);
                row.sw[k][throttle] = runner.submit(
                    configFor(opts, sizesKb[k], false, throttle), swp);
            }
        }
        rows.push_back(std::move(row));
    }

    FigureResult out;
    Table t;
    t.name = "size-sweep";
    t.columns = {"size", "mthwp", "mthwp+T", "mtswp", "mtswp+T"};
    for (unsigned k = 0; k < 8; ++k) {
        unsigned kb = sizesKb[k];
        std::vector<double> hw, hwt, sw, swt;
        for (const Row &row : rows) {
            hw.push_back(speedup(row.base, row.hw[k][0]));
            hwt.push_back(speedup(row.base, row.hw[k][1]));
            sw.push_back(speedup(row.base, row.sw[k][0]));
            swt.push_back(speedup(row.base, row.sw[k][1]));
        }
        t.addRow({Cell::str(std::to_string(kb) + "K"),
                  Cell::number(geomean(hw), 3),
                  Cell::number(geomean(hwt), 3),
                  Cell::number(geomean(sw), 3),
                  Cell::number(geomean(swt), 3)});
        if (kb == 16) {
            out.metric("geomean.16K.mthwp+T", geomean(hwt));
            out.metric("geomean.16K.mtswp+T", geomean(swt));
        }
    }
    out.tables.push_back(std::move(t));
    std::string used = "benchmarks:";
    for (const auto &n : names)
        used += " " + n;
    out.notes.push_back(used);
    out.notes.push_back("paper shape: performance grows with cache "
                        "size; at 1KB unthrottled prefetching degrades "
                        "performance but throttling keeps it above "
                        "1.0; the throttling margin shrinks as the "
                        "cache grows");
    return out;
}

} // namespace

CampaignSpec
specFig16PcacheSize()
{
    return {"fig16_pcache_size", "Prefetch cache size sensitivity",
            "Fig. 16", &run};
}

} // namespace bench
} // namespace mtp
