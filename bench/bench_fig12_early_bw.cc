/**
 * @file
 * Figure 12: why throttling helps — (a) the ratio of early prefetches
 * (evicted before first use) and (b) DRAM bandwidth consumption
 * normalized to the no-prefetching case, for MT-SWP with and without
 * the throttle engine.
 */

#include "bench/harnesses.hh"

namespace mtp {
namespace bench {
namespace {

FigureResult
run(Runner &runner, const Options &opts)
{
    auto names = selectBenchmarks(opts, Suite::memoryIntensiveNames());
    // Submit the whole matrix up front so the runs overlap.
    std::vector<MatrixRow> rows;
    for (const auto &name : names) {
        Workload w = Suite::get(name, opts.scaleDiv);
        SimConfig cfg = baseConfig(opts);
        SimConfig thr = cfg;
        thr.throttleEnable = true;
        MatrixRow row{name, w.info.type, runner.submit(cfg, w.kernel), {}};
        row.runs.push_back(runner.submit(cfg, w.variant(SwPrefKind::StrideIP)));
        row.runs.push_back(runner.submit(thr, w.variant(SwPrefKind::StrideIP)));
        rows.push_back(std::move(row));
    }

    FigureResult out;
    Table t;
    t.name = "early-and-bandwidth";
    t.columns = {"bench", "type", "early", "early+T", "bw", "bw+T"};
    for (const MatrixRow &row : rows) {
        const RunResult &base = row.base.get();
        const RunResult &swp = row.runs[0].get();
        const RunResult &swpt = row.runs[1].get();
        // Normalized bandwidth: bytes per cycle vs. the baseline run.
        double base_bw = static_cast<double>(base.dramBytes) /
                         static_cast<double>(base.cycles);
        double bw = static_cast<double>(swp.dramBytes) /
                    static_cast<double>(swp.cycles) / base_bw;
        double bwt = static_cast<double>(swpt.dramBytes) /
                     static_cast<double>(swpt.cycles) / base_bw;
        t.addRow({Cell::str(row.name), Cell::str(toString(row.type)),
                  Cell::number(swp.earlyRatio()),
                  Cell::number(swpt.earlyRatio()), Cell::number(bw),
                  Cell::number(bwt)});
    }
    out.tables.push_back(std::move(t));
    out.notes.push_back("paper shape: throttling cuts both the early "
                        "ratio and bandwidth for stream, cell and cfd");
    return out;
}

} // namespace

CampaignSpec
specFig12EarlyBw()
{
    return {"fig12_early_bw",
            "Early prefetches and bandwidth under throttling",
            "Fig. 12a/12b", &run};
}

} // namespace bench
} // namespace mtp
