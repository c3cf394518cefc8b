/**
 * @file
 * Figure 17: MT-HWP's sensitivity to prefetch distance (1 to 15).
 * The paper finds distance 1 best for most benchmarks — late
 * prefetches are rare because warp switching hides latency, while
 * large distances overflow the prefetch cache — with stream the
 * exception (its prefetches are chronically late, so distance ~5
 * helps before early evictions take over).
 */

#include "bench/harnesses.hh"

namespace mtp {
namespace bench {
namespace {

FigureResult
run(Runner &runner, const Options &opts)
{
    auto names = selectBenchmarks(opts, sweepSubset());
    const unsigned distances[] = {1, 3, 5, 7, 9, 11, 13, 15};

    // Submit the whole distance sweep up front so the runs overlap.
    std::vector<MatrixRow> rows;
    for (const auto &name : names) {
        Workload w = Suite::get(name, opts.scaleDiv);
        MatrixRow row{name, w.info.type,
                      runner.submit(baseConfig(opts), w.kernel), {}};
        for (unsigned d : distances) {
            SimConfig cfg = baseConfig(opts);
            cfg.hwPref = HwPrefKind::MTHWP;
            cfg.prefDistance = d;
            row.runs.push_back(runner.submit(cfg, w.kernel));
        }
        rows.push_back(std::move(row));
    }

    FigureResult out;
    Table t;
    t.name = "distance-sweep";
    t.columns = {"bench"};
    for (unsigned d : distances)
        t.columns.push_back("d" + std::to_string(d));
    std::vector<std::vector<double>> per_distance(8);
    for (const MatrixRow &row : rows) {
        std::vector<Cell> cells = {Cell::str(row.name)};
        for (unsigned i = 0; i < 8; ++i) {
            double spd = speedup(row.base, row.runs[i]);
            per_distance[i].push_back(spd);
            cells.push_back(Cell::number(spd));
        }
        t.addRow(std::move(cells));
    }
    std::vector<Cell> gm = {Cell::str("geomean")};
    for (unsigned i = 0; i < 8; ++i)
        gm.push_back(Cell::number(geomean(per_distance[i])));
    t.addRow(std::move(gm));
    out.tables.push_back(std::move(t));
    out.metric("geomean.d1", geomean(per_distance[0]));
    out.metric("geomean.d15", geomean(per_distance[7]));
    out.notes.push_back("paper shape: distance 1 best overall; stream "
                        "peaks around distance 5 then decays as "
                        "prefetches turn early (the 16 KB cache cannot "
                        "hold them)");
    return out;
}

} // namespace

CampaignSpec
specFig17Distance()
{
    return {"fig17_distance", "MT-HWP prefetch distance sensitivity",
            "Fig. 17", &run};
}

} // namespace bench
} // namespace mtp
