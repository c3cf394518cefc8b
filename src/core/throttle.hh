/**
 * @file
 * Adaptive prefetch throttling (Sec. V). The per-core throttle engine
 * monitors two metrics over 100K-cycle periods:
 *
 *  - early eviction rate = early evictions / useful prefetches (Eq. 5),
 *    updated by replacement (Eq. 7);
 *  - merge ratio = intra-core merges / total MRQ requests (Eq. 6),
 *    updated by averaging with the previous value (Eq. 8);
 *
 * and maps them through the Table I heuristics onto a throttle degree
 * in [0, 5], where degree d deterministically drops d out of every 5
 * prefetch requests (5 = "No Prefetch").
 *
 * LatenessThrottle is the simpler lateness-driven controller used by
 * the StridePC+T baseline of Fig. 15.
 */

#ifndef MTP_CORE_THROTTLE_HH
#define MTP_CORE_THROTTLE_HH

#include <cstdint>
#include <string>

#include "common/config.hh"
#include "common/stats.hh"
#include "obs/trace.hh"

namespace mtp {

/** The paper's adaptive throttle engine (Table I). */
class ThrottleEngine
{
  public:
    /** Cumulative counters sampled at each period boundary. */
    struct Snapshot
    {
        std::uint64_t earlyEvictions = 0; //!< prefetch cache
        std::uint64_t useful = 0;         //!< prefetch cache
        std::uint64_t fills = 0;          //!< prefetch cache
        std::uint64_t merges = 0;         //!< MSHR intra-core merges
        std::uint64_t totalRequests = 0;  //!< MSHR lookups
        /**
         * Demand transactions served by the prefetch cache. A hit is
         * the limiting case of a merge — the prefetch simply completed
         * before the demand arrived — so it counts toward the merge
         * ratio; otherwise perfectly timely prefetching would read as
         * "no merging" and be throttled off by the Low/Low rule.
         */
        std::uint64_t prefCacheHits = 0;
    };

    explicit ThrottleEngine(const SimConfig &cfg);

    /**
     * Period-boundary update: compute the monitored metrics from the
     * delta against the previous snapshot and apply Table I.
     * @param now current cycle, for the optional trace event
     */
    void updatePeriod(const Snapshot &cumulative, Cycle now = 0);

    /**
     * Emit one trace event per period update to @p tracer (borrowed;
     * may be null to detach). `mtp-sim --events FILE` streams these
     * events as JSONL.
     */
    void
    setTrace(obs::TraceRecorder *tracer, CoreId core)
    {
        tracer_ = tracer;
        coreId_ = core;
    }

    /**
     * Per-prefetch-request filter.
     * @return true iff this prefetch must be dropped.
     */
    bool shouldDrop();

    unsigned degree() const { return degree_; }
    double currentEarlyRate() const { return curEarly_; }
    double currentMergeRatio() const { return curMerge_; }

    std::uint64_t dropped() const { return dropped_; }
    std::uint64_t allowed() const { return allowed_; }

    /** Export counters under "<prefix>.". */
    void exportStats(StatSet &set, const std::string &prefix) const;

    /** Maximum degree == "No Prefetch". */
    static constexpr unsigned noPrefetchDegree = 5;

    /** Minimum fills per period for the metrics to be observable. */
    static constexpr std::uint64_t observableFills = 16;

    /** Longest probe interval (periods) for harmful benchmarks. */
    static constexpr std::uint64_t maxProbeBackoff = 32;

  private:
    double earlyHigh_;
    double earlyLow_;
    double mergeHigh_;

    unsigned degree_;
    Snapshot last_;
    double curEarly_ = 0.0;
    double curMerge_ = 0.0;
    std::uint64_t dropCounter_ = 0;
    std::uint64_t dropped_ = 0;
    std::uint64_t allowed_ = 0;
    std::uint64_t updates_ = 0;
    std::uint64_t idlePeriods_ = 0;
    std::uint64_t idleSinceProbe_ = 0;
    std::uint64_t probeBackoff_ = 1;
    obs::TraceRecorder *tracer_ = nullptr;
    CoreId coreId_ = 0;
};

/**
 * Lateness-driven throttle (the StridePC+T baseline): raises the drop
 * level while the fraction of late prefetches (prefetches a demand
 * merged into) stays high, lowers it when prefetches become timely.
 */
class LatenessThrottle
{
  public:
    /** @param initLevel initial drop level in [0, 5]. */
    explicit LatenessThrottle(unsigned initLevel = 0)
        : level_(initLevel)
    {
    }

    /** Period-boundary update with the period's late fraction. */
    void
    updatePeriod(double lateFraction)
    {
        if (lateFraction > lateHigh) {
            if (level_ < maxLevel)
                ++level_;
        } else if (lateFraction < lateLow) {
            if (level_ > 0)
                --level_;
        }
    }

    /** Per-prefetch-request filter. */
    bool
    shouldDrop()
    {
        ++counter_;
        return (counter_ % maxLevel) < level_;
    }

    unsigned level() const { return level_; }

    static constexpr unsigned maxLevel = 5;
    static constexpr double lateHigh = 0.5;
    static constexpr double lateLow = 0.2;

  private:
    unsigned level_;
    std::uint64_t counter_ = 0;
};

} // namespace mtp

#endif // MTP_CORE_THROTTLE_HH
