/**
 * @file
 * Figure 14: MT-HWP table ablation — GHB (reference), PWS only,
 * PWS+GS, PWS+IP and the full PWS+GS+IP — plus the GS table's
 * PWS-access savings the paper quotes (97% on stride-type).
 */

#include "bench/harnesses.hh"

namespace mtp {
namespace bench {
namespace {

struct Column
{
    const char *name;
    bool ghb, pws, gs, ip;
};

constexpr Column kColumns[] = {
    {"ghb", true, false, false, false},
    {"pws", false, true, false, false},
    {"pws+gs", false, true, true, false},
    {"pws+ip", false, true, false, true},
    {"pws+gs+ip", false, true, true, true},
};

SimConfig
configFor(const Options &opts, const Column &col)
{
    SimConfig cfg = baseConfig(opts);
    if (col.ghb) {
        cfg.hwPref = HwPrefKind::GHB;
    } else {
        cfg.hwPref = HwPrefKind::MTHWP;
        cfg.mthwpPws = col.pws;
        cfg.mthwpGs = col.gs;
        cfg.mthwpIp = col.ip;
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
        for (const Column &col : kColumns)
            row.runs.push_back(runner.submit(configFor(opts, col), w.kernel));
        rows.push_back(std::move(row));
    }

    FigureResult out;
    Table t;
    t.name = "ablation";
    t.columns = {"bench", "type"};
    for (const Column &col : kColumns)
        t.columns.push_back(col.name);

    std::vector<double> g[5];
    double saved_sum = 0.0, probes_sum = 0.0;
    for (const MatrixRow &row : rows) {
        std::vector<Cell> cells = {Cell::str(row.name),
                                   Cell::str(toString(row.type))};
        for (unsigned i = 0; i < 5; ++i) {
            double spd = speedup(row.base, row.runs[i]);
            g[i].push_back(spd);
            cells.push_back(Cell::number(spd));
        }
        // GS table savings of the full MT-HWP on stride-type kernels.
        if (row.type == WorkloadType::Stride) {
            const RunResult &r = row.runs[4].get();
            saved_sum +=
                r.stats.sumMatching("core", ".hwPref.pwsAccessesSaved");
            probes_sum += r.stats.sumMatching("core", ".hwPref.pwsAccesses");
        }
        t.addRow(std::move(cells));
    }
    std::vector<Cell> gm = {Cell::str("geomean"), Cell::str("")};
    for (unsigned i = 0; i < 5; ++i) {
        gm.push_back(Cell::number(geomean(g[i])));
        out.metric(std::string("geomean.") + kColumns[i].name,
                   geomean(g[i]));
    }
    t.addRow(std::move(gm));
    out.tables.push_back(std::move(t));

    if (saved_sum + probes_sum > 0) {
        out.metric("gs.pwsSavings%",
                   100.0 * saved_sum / (saved_sum + probes_sum));
        out.metric("gs.pwsSavings%.paper", 97.0);
    }
    out.notes.push_back("paper: PWS carries the stride-type gains; IP "
                        "adds backprop/bfs/cfd/linear; GS adds little "
                        "speed but saves almost all PWS probes once "
                        "strides promote");
    return out;
}

} // namespace

CampaignSpec
specFig14MthwpAblation()
{
    return {"fig14_mthwp_ablation", "MT-HWP table ablation vs. GHB",
            "Fig. 14", &run};
}

} // namespace bench
} // namespace mtp
