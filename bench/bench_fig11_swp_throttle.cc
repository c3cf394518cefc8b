/**
 * @file
 * Figure 11: MT-SWP with adaptive prefetch throttling. Columns match
 * the figure: register prefetching, stride prefetching, MT-SWP
 * (stride+IP) and MT-SWP with the throttle engine enabled.
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
        row.runs.push_back(runner.submit(cfg, w.variant(SwPrefKind::Register)));
        row.runs.push_back(runner.submit(cfg, w.variant(SwPrefKind::Stride)));
        row.runs.push_back(runner.submit(cfg, w.variant(SwPrefKind::StrideIP)));
        row.runs.push_back(runner.submit(thr, w.variant(SwPrefKind::StrideIP)));
        rows.push_back(std::move(row));
    }

    FigureResult out;
    Table t;
    t.name = "speedups";
    t.columns = {"bench", "type", "register", "stride", "mtswp",
                 "mtswp+T"};
    std::vector<double> g_reg, g_str, g_swp, g_thr;
    for (const MatrixRow &row : rows) {
        double reg = speedup(row.base, row.runs[0]);
        double str = speedup(row.base, row.runs[1]);
        double swp = speedup(row.base, row.runs[2]);
        double swpt = speedup(row.base, row.runs[3]);
        g_reg.push_back(reg);
        g_str.push_back(str);
        g_swp.push_back(swp);
        g_thr.push_back(swpt);
        t.addRow({Cell::str(row.name), Cell::str(toString(row.type)),
                  Cell::number(reg), Cell::number(str),
                  Cell::number(swp), Cell::number(swpt)});
    }
    t.addRow({Cell::str("geomean"), Cell::str(""),
              Cell::number(geomean(g_reg)), Cell::number(geomean(g_str)),
              Cell::number(geomean(g_swp)),
              Cell::number(geomean(g_thr))});
    out.tables.push_back(std::move(t));
    out.metric("geomean.register", geomean(g_reg));
    out.metric("geomean.stride", geomean(g_str));
    out.metric("geomean.mtswp", geomean(g_swp));
    out.metric("geomean.mtswp+T", geomean(g_thr));
    out.notes.push_back("paper: throttling rescues stream/cell/cfd "
                        "(late or early prefetch floods) while leaving "
                        "winners alone; MT-SWP+T is +16% over stride, "
                        "+36% over baseline");
    return out;
}

} // namespace

CampaignSpec
specFig11SwpThrottle()
{
    return {"fig11_swp_throttle", "MT-SWP with adaptive throttling",
            "Fig. 11", &run};
}

} // namespace bench
} // namespace mtp
