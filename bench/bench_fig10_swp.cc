/**
 * @file
 * Figure 10: speedup of the software prefetching schemes over the
 * baseline binary — register prefetching (Ryoo et al.), stride
 * prefetching into the prefetch cache, inter-thread prefetching (IP),
 * and their combination (static MT-SWP).
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
        MatrixRow row{name, w.info.type, runner.submit(cfg, w.kernel), {}};
        for (SwPrefKind kind :
             {SwPrefKind::Register, SwPrefKind::Stride, SwPrefKind::IP,
              SwPrefKind::StrideIP})
            row.runs.push_back(runner.submit(cfg, w.variant(kind)));
        rows.push_back(std::move(row));
    }

    FigureResult out;
    Table t;
    t.name = "speedups";
    t.columns = {"bench", "type",     "register",
                 "stride", "ip",      "stride+ip"};
    std::vector<double> g_reg, g_str, g_ip, g_sip;
    for (const MatrixRow &row : rows) {
        double reg = speedup(row.base, row.runs[0]);
        double str = speedup(row.base, row.runs[1]);
        double ip = speedup(row.base, row.runs[2]);
        double sip = speedup(row.base, row.runs[3]);
        g_reg.push_back(reg);
        g_str.push_back(str);
        g_ip.push_back(ip);
        g_sip.push_back(sip);
        t.addRow({Cell::str(row.name), Cell::str(toString(row.type)),
                  Cell::number(reg), Cell::number(str),
                  Cell::number(ip), Cell::number(sip)});
    }
    t.addRow({Cell::str("geomean"), Cell::str(""),
              Cell::number(geomean(g_reg)), Cell::number(geomean(g_str)),
              Cell::number(geomean(g_ip)),
              Cell::number(geomean(g_sip))});
    out.tables.push_back(std::move(t));
    out.metric("geomean.register", geomean(g_reg));
    out.metric("geomean.stride", geomean(g_str));
    out.metric("geomean.ip", geomean(g_ip));
    out.metric("geomean.stride+ip", geomean(g_sip));
    out.notes.push_back("paper: stride beats register except on "
                        "stream; IP lifts mp/uncoal (backprop, bfs, "
                        "linear, sepia) but degrades ocean; static "
                        "MT-SWP = stride+IP is +12% over stride alone");
    return out;
}

} // namespace

CampaignSpec
specFig10Swp()
{
    return {"fig10_swp", "Software GPGPU prefetching speedups",
            "Fig. 10", &run};
}

} // namespace bench
} // namespace mtp
