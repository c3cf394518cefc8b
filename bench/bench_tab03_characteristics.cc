/**
 * @file
 * Table III: characteristics of the 14 memory-intensive benchmarks —
 * launch geometry, measured base CPI and perfect-memory CPI next to
 * the published values, and the memory-intensity criterion (base CPI
 * at least 50% above perfect-memory CPI).
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
    struct Row
    {
        std::string name;
        WorkloadInfo info;
        unsigned maxBlocksPerCore;
        RunFuture base, perfect;
    };
    std::vector<Row> rows;
    for (const auto &name : names) {
        Workload w = Suite::get(name, opts.scaleDiv);
        SimConfig pmem = baseConfig(opts);
        pmem.perfectMemory = true;
        RunFuture base = runner.submit(baseConfig(opts), w.kernel);
        RunFuture perfect = runner.submit(pmem, w.kernel);
        rows.push_back(
            {name, w.info, w.kernel.maxBlocksPerCore, base, perfect});
    }

    FigureResult out;
    Table t;
    t.name = "characteristics";
    t.columns = {"bench",   "suite",      "type",      "warps",
                 "blocks",  "blk/core",   "baseCPI",   "paper.base",
                 "pmemCPI", "paper.pmem", "mem-intense"};
    unsigned intenseCount = 0;
    for (const Row &row : rows) {
        const RunResult &base = row.base.get();
        const RunResult &perfect = row.perfect.get();
        bool intense = base.cpi > 1.5 * perfect.cpi;
        intenseCount += intense;
        t.addRow({Cell::str(row.name), Cell::str(row.info.suite),
                  Cell::str(toString(row.info.type)),
                  Cell::number(
                      static_cast<double>(row.info.paperWarps), 0),
                  Cell::number(
                      static_cast<double>(row.info.paperBlocks), 0),
                  Cell::number(row.maxBlocksPerCore, 0),
                  Cell::number(base.cpi),
                  Cell::number(row.info.paperBaseCpi),
                  Cell::number(perfect.cpi),
                  Cell::number(row.info.paperPmemCpi),
                  Cell::str(intense ? "yes" : "NO")});
    }
    out.tables.push_back(std::move(t));

    Table d;
    d.name = "delinquent-loads";
    d.columns = {"bench", "stride", "ip"};
    for (const Row &row : rows) {
        d.addRow({Cell::str(row.name),
                  Cell::number(row.info.paperDelinquentStride, 0),
                  Cell::number(row.info.paperDelinquentIp, 0)});
    }
    out.tables.push_back(std::move(d));

    out.metric("memIntensive.count", intenseCount);
    out.metric("memIntensive.frac",
               names.empty() ? 0.0
                             : static_cast<double>(intenseCount) /
                                   static_cast<double>(names.size()));
    out.notes.push_back("mem-intense: base CPI > 1.5x perfect-memory "
                        "CPI (the paper's Table III criterion)");
    return out;
}

} // namespace

CampaignSpec
specTab03Characteristics()
{
    return {"tab03_characteristics", "Benchmark characteristics",
            "Table III", &run};
}

} // namespace bench
} // namespace mtp
