/**
 * @file
 * Table IV: the 12 non-memory-intensive benchmarks. Their CPIs barely
 * move under a hardware prefetcher or a perfect memory — the property
 * the table documents.
 */

#include "bench/harnesses.hh"

namespace mtp {
namespace bench {
namespace {

FigureResult
run(Runner &runner, const Options &opts)
{
    auto names = selectBenchmarks(opts, Suite::computeNames());
    // Submit the whole matrix up front so the runs overlap.
    struct Row
    {
        std::string name;
        WorkloadInfo info;
        RunFuture base, perfect, pref;
    };
    std::vector<Row> rows;
    for (const auto &name : names) {
        Workload w = Suite::get(name, opts.scaleDiv);
        SimConfig pmem = baseConfig(opts);
        pmem.perfectMemory = true;
        SimConfig hwp = baseConfig(opts);
        hwp.hwPref = HwPrefKind::MTHWP;
        RunFuture base = runner.submit(baseConfig(opts), w.kernel);
        RunFuture perfect = runner.submit(pmem, w.kernel);
        RunFuture pref = runner.submit(hwp, w.kernel);
        rows.push_back({name, w.info, base, perfect, pref});
    }

    FigureResult out;
    Table t;
    t.name = "cpi";
    t.columns = {"bench",   "baseCPI",    "paper.base", "pmemCPI",
                 "paper.pmem", "hwpCPI", "paper.hwp"};
    std::vector<double> hwpOverBase;
    for (const Row &row : rows) {
        const RunResult &base = row.base.get();
        const RunResult &perfect = row.perfect.get();
        const RunResult &pref = row.pref.get();
        hwpOverBase.push_back(base.cpi / pref.cpi);
        t.addRow({Cell::str(row.name), Cell::number(base.cpi),
                  Cell::number(row.info.paperBaseCpi),
                  Cell::number(perfect.cpi),
                  Cell::number(row.info.paperPmemCpi),
                  Cell::number(pref.cpi),
                  Cell::number(row.info.paperHwpCpi)});
    }
    out.tables.push_back(std::move(t));
    out.metric("geomean.hwpSpeedup", geomean(hwpOverBase));
    out.notes.push_back("non-memory-intensive kernels: prefetching "
                        "and perfect memory barely move the CPI");
    return out;
}

} // namespace

CampaignSpec
specTab04Nonmem()
{
    return {"tab04_nonmem", "Non-memory-intensive benchmark CPIs",
            "Table IV", &run};
}

} // namespace bench
} // namespace mtp
