/**
 * @file
 * Figure 8: average (demand) memory latency under software prefetching
 * normalized to the no-prefetching case (bars), with prefetch accuracy
 * (circles). The paper's point: latency can triple even at ~100%
 * accuracy, so accuracy alone cannot flag harmful prefetching.
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
        MatrixRow row{name, w.info.type,
                      runner.submit(baseConfig(opts), w.kernel), {}};
        row.runs.push_back(runner.submit(baseConfig(opts),
                                         w.variant(SwPrefKind::StrideIP)));
        rows.push_back(std::move(row));
    }

    FigureResult out;
    Table t;
    t.name = "latency";
    t.columns = {"bench",   "type",    "lat.base",
                 "lat.pref", "normLat", "accuracy%"};
    std::vector<double> norms;
    for (const MatrixRow &row : rows) {
        const RunResult &base = row.base.get();
        const RunResult &pref = row.runs[0].get();
        double norm = base.avgDemandLatency > 0
                          ? pref.avgDemandLatency /
                                base.avgDemandLatency
                          : 0.0;
        norms.push_back(norm);
        t.addRow({Cell::str(row.name), Cell::str(toString(row.type)),
                  Cell::number(base.avgDemandLatency, 1),
                  Cell::number(pref.avgDemandLatency, 1),
                  Cell::number(norm),
                  Cell::number(100.0 * pref.accuracy(), 1)});
    }
    out.tables.push_back(std::move(t));
    out.metric("geomean.normLat", geomean(norms));
    out.notes.push_back("paper shape: normalized latency 1-3.5x; high "
                        "even when accuracy approaches 100% (e.g. "
                        "stream)");
    return out;
}

} // namespace

CampaignSpec
specFig08Latency()
{
    return {"fig08_latency",
            "Normalized memory latency and prefetch accuracy under "
            "MT-SWP",
            "Fig. 8", &run};
}

} // namespace bench
} // namespace mtp
