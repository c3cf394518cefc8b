/**
 * @file
 * Table II: the baseline processor configuration. Renders the
 * simulated machine's parameters next to the published ones.
 */

#include "bench/harnesses.hh"

namespace mtp {
namespace bench {
namespace {

FigureResult
run(Runner &runner, const Options &opts)
{
    (void)runner;
    SimConfig cfg = baseConfig(opts);
    cfg.validate();

    FigureResult out;
    Table t;
    t.name = "configuration";
    t.columns = {"parameter", "paper", "simulator"};
    auto row = [&](const char *name, const char *paper,
                   const std::string &ours) {
        t.addRow({Cell::str(name), Cell::str(paper), Cell::str(ours)});
    };
    // The SIMD width and the fetch rate are fixed in the core model.
    row("cores", "14, 8-wide SIMD",
        std::to_string(cfg.numCores) + ", 8-wide SIMD");
    row("fetch", "1 warp-inst/cycle", "1 warp-inst/cycle");
    row("decode", "5 cycles, stall on branch",
        std::to_string(cfg.decodeCycles) + " cycles, stall on branch");
    row("IMUL / FDIV / other", "16 / 32 / 4 cycles per warp",
        std::to_string(cfg.latencyImul) + " / " +
            std::to_string(cfg.latencyFdiv) + " / " +
            std::to_string(cfg.latencyOther) + " cycles per warp");
    row("prefetch cache", "16 KB, 8-way",
        std::to_string(cfg.prefCacheBytes / 1024) + " KB, " +
            std::to_string(cfg.prefCacheAssoc) + "-way");
    row("DRAM", "2 KB page, 16 banks, 8 ch",
        std::to_string(cfg.dramRowBytes / 1024) + " KB page, " +
            std::to_string(cfg.dramBanks * cfg.dramChannels) +
            " banks, " + std::to_string(cfg.dramChannels) + " ch");
    row("DRAM timing", "tCL=11 tRCD=11 tRP=13",
        "tCL=" + std::to_string(cfg.dramTCL) +
            " tRCD=" + std::to_string(cfg.dramTRCD) +
            " tRP=" + std::to_string(cfg.dramTRP));
    row("bandwidth", "57.6 GB/s",
        std::to_string(cfg.dramBusBytesPerCycle * cfg.dramChannels *
                       900 / 1000) +
            "." +
            std::to_string(cfg.dramBusBytesPerCycle *
                           cfg.dramChannels * 900 % 1000 / 100) +
            " GB/s");
    row("interconnect", "20 cycles, 1 req / 2 cores / cycle",
        std::to_string(cfg.icntLatency) + " cycles, 1 req / " +
            std::to_string(cfg.icntCoresPerPort) + " cores / cycle");
    row("priority", "demand > prefetch",
        cfg.demandPriority ? "demand > prefetch" : "none");
    out.tables.push_back(std::move(t));
    out.notes.push_back(
        "every SimConfig field accepts a key=value override on any "
        "harness or mtp-sim command line");
    return out;
}

} // namespace

CampaignSpec
specTab02Config()
{
    return {"tab02_config", "Baseline processor configuration",
            "Table II", &run};
}

} // namespace bench
} // namespace mtp
