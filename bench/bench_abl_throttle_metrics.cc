/**
 * @file
 * Ablation: the throttle engine's two metrics in isolation (Sec. V-A).
 * "early only" neutralizes the merge rule by treating the merge ratio
 * as always high; "merge only" neutralizes the early-eviction rule by
 * moving its thresholds out of reach. Run on MT-HWP.
 */

#include "bench/harnesses.hh"

namespace mtp {
namespace bench {
namespace {

SimConfig
configFor(const Options &opts, unsigned i)
{
    SimConfig cfg = baseConfig(opts);
    cfg.hwPref = HwPrefKind::MTHWP;
    cfg.throttleEnable = i != 0;
    if (i == 2) {
        // Early-eviction rule only: merge always reads high.
        cfg.mergeHigh = -1.0;
    } else if (i == 3) {
        // Merge rule only: early rate never trips its bands.
        cfg.earlyEvictLow = 1e18;
        cfg.earlyEvictHigh = 1e19;
    }
    return cfg;
}

FigureResult
run(Runner &runner, const Options &opts)
{
    auto names = selectBenchmarks(opts, Suite::memoryIntensiveNames());
    // Submit the whole matrix up front so the runs overlap.
    std::vector<MatrixRow> rows;
    for (const auto &name : names) {
        Workload w = Suite::get(name, opts.scaleDiv);
        MatrixRow row{name, w.info.type,
                      runner.submit(baseConfig(opts), w.kernel), {}};
        for (unsigned i = 0; i < 4; ++i)
            row.runs.push_back(runner.submit(configFor(opts, i), w.kernel));
        rows.push_back(std::move(row));
    }

    FigureResult out;
    Table t;
    t.name = "throttle-metrics";
    t.columns = {"bench", "no-throt", "both", "earlyOnly", "mergeOnly"};
    std::vector<double> g[4];
    for (const MatrixRow &row : rows) {
        std::vector<Cell> cells = {Cell::str(row.name)};
        for (unsigned i = 0; i < 4; ++i) {
            double spd = speedup(row.base, row.runs[i]);
            g[i].push_back(spd);
            cells.push_back(Cell::number(spd));
        }
        t.addRow(std::move(cells));
    }
    t.addRow({Cell::str("geomean"), Cell::number(geomean(g[0])),
              Cell::number(geomean(g[1])), Cell::number(geomean(g[2])),
              Cell::number(geomean(g[3]))});
    out.tables.push_back(std::move(t));
    out.metric("geomean.no-throt", geomean(g[0]));
    out.metric("geomean.both", geomean(g[1]));
    out.metric("geomean.earlyOnly", geomean(g[2]));
    out.metric("geomean.mergeOnly", geomean(g[3]));
    out.notes.push_back("the early-eviction rate is the primary signal "
                        "(Sec. V-A); the merge ratio alone cannot "
                        "identify harmful prefetching, it only "
                        "confirms useful flow");
    return out;
}

} // namespace

CampaignSpec
specAblThrottleMetrics()
{
    return {"abl_throttle_metrics", "Throttle metric ablation",
            "Sec. V-A", &run};
}

} // namespace bench
} // namespace mtp
