/**
 * @file
 * Figure 15: throttled hardware prefetchers — GHB vs. feedback-driven
 * GHB+F, StridePC vs. lateness-throttled StridePC+T, and MT-HWP vs.
 * MT-HWP with the paper's adaptive throttle engine.
 */

#include "bench/harnesses.hh"

namespace mtp {
namespace bench {
namespace {

constexpr const char *kColumnNames[6] = {"ghb",    "ghb+F",
                                         "stpc",   "stpc+T",
                                         "mthwp",  "mthwp+T"};

SimConfig
configFor(const Options &opts, unsigned i)
{
    SimConfig cfg = baseConfig(opts);
    switch (i) {
    case 0:
        cfg.hwPref = HwPrefKind::GHB;
        break;
    case 1:
        cfg.hwPref = HwPrefKind::GHB;
        cfg.ghbFeedback = true;
        break;
    case 2:
        cfg.hwPref = HwPrefKind::StridePC;
        break;
    case 3:
        cfg.hwPref = HwPrefKind::StridePC;
        cfg.stridePcLateThrottle = true;
        break;
    case 4:
        cfg.hwPref = HwPrefKind::MTHWP;
        break;
    default:
        cfg.hwPref = HwPrefKind::MTHWP;
        cfg.throttleEnable = true;
        break;
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
        for (unsigned i = 0; i < 6; ++i)
            row.runs.push_back(runner.submit(configFor(opts, i), w.kernel));
        rows.push_back(std::move(row));
    }

    FigureResult out;
    Table t;
    t.name = "speedups";
    t.columns = {"bench", "type"};
    for (const char *c : kColumnNames)
        t.columns.push_back(c);
    std::vector<double> g[6];
    for (const MatrixRow &row : rows) {
        std::vector<Cell> cells = {Cell::str(row.name),
                                   Cell::str(toString(row.type))};
        for (unsigned i = 0; i < 6; ++i) {
            double spd = speedup(row.base, row.runs[i]);
            g[i].push_back(spd);
            cells.push_back(Cell::number(spd));
        }
        t.addRow(std::move(cells));
    }
    std::vector<Cell> gm = {Cell::str("geomean"), Cell::str("")};
    for (unsigned i = 0; i < 6; ++i) {
        gm.push_back(Cell::number(geomean(g[i])));
        out.metric(std::string("geomean.") + kColumnNames[i],
                   geomean(g[i]));
    }
    t.addRow(std::move(gm));
    out.tables.push_back(std::move(t));
    out.notes.push_back("paper: throttling rescues stream (the "
                        "late-prefetch pathology) with small losses "
                        "elsewhere; MT-HWP+T is +22%/+15% over "
                        "GHB+F/StridePC+T and +29% overall");
    return out;
}

} // namespace

CampaignSpec
specFig15HwThrottle()
{
    return {"fig15_hw_throttle", "Hardware prefetcher throttling",
            "Fig. 15", &run};
}

} // namespace bench
} // namespace mtp
