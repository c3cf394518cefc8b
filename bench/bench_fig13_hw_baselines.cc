/**
 * @file
 * Figure 13: previously proposed hardware prefetchers — Stride RPT,
 * StridePC, Stream and GHB — with (a) their original indexing and
 * (b) warp-id-enhanced training. The paper's conclusion: without
 * warp-id training the tables see the scrambled pattern of Fig. 5 and
 * the prefetchers are unstable.
 */

#include "bench/harnesses.hh"

namespace mtp {
namespace bench {
namespace {

FigureResult
run(Runner &runner, const Options &opts)
{
    const HwPrefKind kinds[] = {HwPrefKind::StrideRPT,
                                HwPrefKind::StridePC,
                                HwPrefKind::Stream, HwPrefKind::GHB};
    const char *kindNames[] = {"stride", "stridePC", "stream", "ghb"};

    auto names = selectBenchmarks(opts, Suite::memoryIntensiveNames());
    // Submit the whole matrix up front so the runs overlap: per
    // benchmark the baseline, then the four kinds with original
    // indexing (runs[0..3]) and with warp-id training (runs[4..7]).
    std::vector<MatrixRow> rows;
    for (const auto &name : names) {
        Workload w = Suite::get(name, opts.scaleDiv);
        MatrixRow row{name, w.info.type,
                      runner.submit(baseConfig(opts), w.kernel), {}};
        for (bool warp_training : {false, true}) {
            for (HwPrefKind kind : kinds) {
                SimConfig cfg = baseConfig(opts);
                cfg.hwPref = kind;
                cfg.hwPrefWarpTraining = warp_training;
                row.runs.push_back(runner.submit(cfg, w.kernel));
            }
        }
        rows.push_back(std::move(row));
    }

    FigureResult out;
    for (bool warp_training : {false, true}) {
        Table t;
        t.name = warp_training ? "13b-warp-id-indexing"
                               : "13a-original-indexing";
        t.columns = {"bench", "type", "stride", "stridePC", "stream",
                     "ghb"};
        std::vector<double> g[4];
        for (const MatrixRow &row : rows) {
            std::vector<Cell> cells = {Cell::str(row.name),
                                       Cell::str(toString(row.type))};
            for (unsigned i = 0; i < 4; ++i) {
                double spd =
                    speedup(row.base, row.runs[4 * warp_training + i]);
                g[i].push_back(spd);
                cells.push_back(Cell::number(spd));
            }
            t.addRow(std::move(cells));
        }
        std::vector<Cell> gm = {Cell::str("geomean"), Cell::str("")};
        for (unsigned i = 0; i < 4; ++i) {
            gm.push_back(Cell::number(geomean(g[i])));
            out.metric(std::string("geomean.") +
                           (warp_training ? "warpid." : "orig.") +
                           kindNames[i],
                       geomean(g[i]));
        }
        t.addRow(std::move(gm));
        out.tables.push_back(std::move(t));
    }
    out.notes.push_back("paper: StridePC (enhanced) stands out with "
                        "wins on black / mersenne / monte / pns and a "
                        "loss on stream; GHB helps scalar and linear "
                        "but has low coverage");
    return out;
}

} // namespace

CampaignSpec
specFig13HwBaselines()
{
    return {"fig13_hw_baselines", "Baseline hardware prefetchers",
            "Fig. 13a/13b", &run};
}

} // namespace bench
} // namespace mtp
