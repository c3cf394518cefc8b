/**
 * @file
 * Figure 7 / Sec. IV: the MTAML analytical model. Regenerates the
 * figure's four curves — MTAML and MTAML_pref (Eq. 1-4) against
 * measured average memory latency with and without prefetching — as a
 * function of the number of active warps, labels each point with the
 * useful / no-effect / useful-or-harmful classification, and checks
 * the prediction against the measured speedup (the campaign's
 * measured-vs-MTAML delta: tolerable-latency slack per point plus an
 * overall agreement rate).
 *
 * The latency curves are measured from the simulator by varying the
 * per-core warp count of a scalar-product-like kernel.
 */

#include "bench/harnesses.hh"

namespace mtp {
namespace bench {
namespace {

FigureResult
run(Runner &runner, const Options &opts)
{
    // Build and submit the whole warp sweep up front; the driver
    // overlaps the runs while the loop below prints in order.
    SimConfig cfg = baseConfig(opts);
    struct Point
    {
        unsigned warps;
        KernelDesc kernel;
        RunFuture base;
        RunFuture pref;
    };
    std::vector<Point> points;
    for (unsigned warps = 2; warps <= 16; warps += 2) {
        // One block of `warps` warps per core.
        Workload w = Suite::get("scalar", opts.scaleDiv);
        KernelDesc k = w.kernel;
        k.warpsPerBlock = warps;
        k.numBlocks =
            std::max<std::uint64_t>(14, k.numBlocks * 8 / warps);
        k.maxBlocksPerCore = 1;
        k.finalize();
        RunFuture base = runner.submit(cfg, k);
        RunFuture pref = runner.submit(
            cfg, applySwPrefetch(k, SwPrefKind::Stride, w.info.swpOpts));
        points.push_back({warps, std::move(k), base, pref});
    }

    FigureResult out;
    Table t;
    t.name = "model-vs-measured";
    t.columns = {"warps",        "MTAML",   "MTAML_pref", "avgLat",
                 "avgLat.pref",  "slack",   "slack.pref", "speedup",
                 "effect",       "agrees"};
    unsigned agreeCount = 0;
    for (const Point &p : points) {
        const RunResult &base = p.base.get();
        const RunResult &pref = p.pref.get();

        MtamlInputs in;
        in.compInsts = static_cast<double>(p.kernel.warpInstsPerWarp() -
                                           p.kernel.memInstsPerWarp());
        in.memInsts = static_cast<double>(p.kernel.memInstsPerWarp());
        in.activeWarps = p.warps;
        in.prefHitProb = pref.prefCoverage();

        PrefEffect effect = classify(in, base.avgDemandLatency,
                                     pref.avgDemandLatency);
        double speedup = static_cast<double>(base.cycles) / pref.cycles;
        // Did the model's call match what the simulator measured?
        // "useful" must speed up, "no-effect" must stay within 1%,
        // "useful-or-harmful" predicts a real effect either way.
        bool agrees = false;
        switch (effect) {
        case PrefEffect::Useful:
            agrees = speedup > 1.01;
            break;
        case PrefEffect::NoEffect:
            agrees = speedup >= 0.99 && speedup <= 1.01;
            break;
        case PrefEffect::Mixed:
            agrees = speedup < 0.99 || speedup > 1.01;
            break;
        }
        agreeCount += agrees;
        t.addRow({Cell::number(p.warps, 0), Cell::number(mtaml(in), 1),
                  Cell::number(mtamlPref(in), 1),
                  Cell::number(base.avgDemandLatency, 1),
                  Cell::number(pref.avgDemandLatency, 1),
                  Cell::number(mtaml(in) - base.avgDemandLatency, 1),
                  Cell::number(mtamlPref(in) - pref.avgDemandLatency,
                               1),
                  Cell::number(speedup), Cell::str(toString(effect)),
                  Cell::str(agrees ? "yes" : "NO")});
    }
    out.tables.push_back(std::move(t));
    out.metric("mtaml.agreement",
               points.empty() ? 0.0
                              : static_cast<double>(agreeCount) /
                                    static_cast<double>(points.size()));
    out.notes.push_back("expected shape: MTAML grows linearly with "
                        "warps; prefetching raises the tolerable bar "
                        "(MTAML_pref) while measured latency also "
                        "rises (Sec. IV-B)");
    return out;
}

} // namespace

CampaignSpec
specFig07Mtaml()
{
    return {"fig07_mtaml", "MTAML analytical model",
            "Fig. 7 / Eq. 1-4", &run};
}

} // namespace bench
} // namespace mtp
