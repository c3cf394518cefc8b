/**
 * @file
 * Ablation: prefetch degree (requests per trigger, Sec. II-C3). The
 * paper evaluates distance explicitly (Fig. 17) and keeps degree 1 as
 * the default; this harness shows why — extra requests per trigger
 * mostly turn into early evictions at a 16 KB prefetch cache.
 */

#include "bench/harnesses.hh"

namespace mtp {
namespace bench {
namespace {

FigureResult
run(Runner &runner, const Options &opts)
{
    auto names = selectBenchmarks(opts, sweepSubset());
    const unsigned degrees[] = {1, 2, 3, 4};

    // Submit the whole degree sweep up front so the runs overlap.
    std::vector<MatrixRow> rows;
    for (const auto &name : names) {
        Workload w = Suite::get(name, opts.scaleDiv);
        MatrixRow row{name, w.info.type,
                      runner.submit(baseConfig(opts), w.kernel), {}};
        for (unsigned d : degrees) {
            SimConfig cfg = baseConfig(opts);
            cfg.hwPref = HwPrefKind::MTHWP;
            cfg.prefDegree = d;
            row.runs.push_back(runner.submit(cfg, w.kernel));
        }
        rows.push_back(std::move(row));
    }

    FigureResult out;
    Table t;
    t.name = "degree-sweep";
    t.columns = {"bench"};
    for (unsigned d : degrees) {
        t.columns.push_back("deg" + std::to_string(d));
        t.columns.push_back("early" + std::to_string(d));
    }
    std::vector<std::vector<double>> per_degree(4);
    for (const MatrixRow &row : rows) {
        std::vector<Cell> cells = {Cell::str(row.name)};
        for (unsigned i = 0; i < 4; ++i) {
            double spd = speedup(row.base, row.runs[i]);
            per_degree[i].push_back(spd);
            cells.push_back(Cell::number(spd));
            cells.push_back(Cell::number(row.runs[i].get().earlyRatio()));
        }
        t.addRow(std::move(cells));
    }
    out.tables.push_back(std::move(t));
    for (unsigned i = 0; i < 4; ++i)
        out.metric("geomean.deg" + std::to_string(degrees[i]),
                   geomean(per_degree[i]));
    out.notes.push_back("extra requests per trigger mostly turn into "
                        "early evictions at a 16 KB prefetch cache — "
                        "degree 1 stays the default");
    return out;
}

} // namespace

CampaignSpec
specAblDegree()
{
    return {"abl_degree", "MT-HWP prefetch degree ablation",
            "Sec. II-C3 / VIII", &run};
}

} // namespace bench
} // namespace mtp
