/**
 * @file
 * Ablation: the scheduling/dispatch locality that inter-thread
 * prefetching depends on (DESIGN.md). Compares MT-HWP speedups under
 *
 *   - contiguous block dispatch + greedy warp scheduling (baseline),
 *   - round-robin block dispatch (consecutive blocks scatter across
 *     cores, so IP prefetches land in the wrong prefetch cache), and
 *   - pure round-robin warp scheduling.
 *
 * This makes the paper's own caveat measurable: an IP prefetch is
 * wasted "when the target warp's block is assigned to a different
 * core" (Sec. III-A2).
 */

#include "bench/harnesses.hh"

namespace mtp {
namespace bench {
namespace {

FigureResult
run(Runner &runner, const Options &opts)
{
    // IP-sensitive benchmarks: the mp/uncoal classes.
    std::vector<std::string> fallback = {"backprop", "cell", "ocean",
                                         "bfs",      "cfd",  "linear",
                                         "sepia"};
    auto names = selectBenchmarks(opts, fallback);

    // Submit the whole matrix up front so the runs overlap: per
    // locality mode, the no-prefetch base and its MT-HWP run.
    struct Row
    {
        std::string name;
        RunFuture base[3];
        RunFuture mthwp[3];
    };
    std::vector<Row> rows;
    for (const auto &name : names) {
        Workload w = Suite::get(name, opts.scaleDiv);
        Row row{name, {}, {}};
        for (unsigned i = 0; i < 3; ++i) {
            SimConfig base_cfg = baseConfig(opts);
            base_cfg.dispatchContiguous = i != 1;
            base_cfg.schedGreedy = i != 2;
            row.base[i] = runner.submit(base_cfg, w.kernel);
            SimConfig cfg = base_cfg;
            cfg.hwPref = HwPrefKind::MTHWP;
            row.mthwp[i] = runner.submit(cfg, w.kernel);
        }
        rows.push_back(std::move(row));
    }

    FigureResult out;
    Table t;
    t.name = "locality";
    t.columns = {"bench", "contig", "rr-blocks", "rr-warps"};
    std::vector<double> g[3];
    for (const Row &row : rows) {
        std::vector<Cell> cells = {Cell::str(row.name)};
        for (unsigned i = 0; i < 3; ++i) {
            double spd = speedup(row.base[i], row.mthwp[i]);
            g[i].push_back(spd);
            cells.push_back(Cell::number(spd));
        }
        t.addRow(std::move(cells));
    }
    t.addRow({Cell::str("geomean"), Cell::number(geomean(g[0])),
              Cell::number(geomean(g[1])),
              Cell::number(geomean(g[2]))});
    out.tables.push_back(std::move(t));
    out.metric("geomean.contig", geomean(g[0]));
    out.metric("geomean.rr-blocks", geomean(g[1]));
    out.metric("geomean.rr-warps", geomean(g[2]));
    out.notes.push_back("expectation: IP's benefit shrinks under "
                        "round-robin block dispatch (the target warp's "
                        "block usually runs on another core)");
    return out;
}

} // namespace

CampaignSpec
specAblLocality()
{
    return {"abl_locality",
            "Block-dispatch / warp-scheduling locality ablation",
            "Sec. III-A2", &run};
}

} // namespace bench
} // namespace mtp
