/**
 * @file
 * DRAM channel model (Table II): a memory-request buffer with inter-core
 * merging (Fig. 2b), FR-FCFS bank scheduling with demand-over-prefetch
 * priority, per-bank row buffers (2 KB pages), and a shared data bus
 * whose occupancy enforces the 57.6 GB/s aggregate bandwidth.
 *
 * All timing is kept in core cycles; the DRAM-clock parameters (tCL,
 * tRCD, tRP at 1.2 GHz) are converted with the configured memory/core
 * clock ratio at construction.
 */

#ifndef MTP_MEM_DRAM_HH
#define MTP_MEM_DRAM_HH

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "common/config.hh"
#include "common/stats.hh"
#include "mem/mem_request.hh"
#include "obs/trace.hh"

namespace mtp {

/** Physical location of a block within a channel. */
struct DramCoord
{
    unsigned bank;
    std::uint64_t row;
};

/** One DRAM channel: request buffer + banks + data bus. */
class DramChannel
{
  public:
    /** Cumulative counters. */
    struct Counters
    {
        std::uint64_t reads = 0;
        std::uint64_t writes = 0;
        std::uint64_t rowHits = 0;      //!< open-row accesses
        std::uint64_t rowEmpty = 0;     //!< accesses to a closed bank
        std::uint64_t rowConflicts = 0; //!< row-buffer conflicts
        std::uint64_t interCoreMerges = 0;
        std::uint64_t bytesTransferred = 0;
        std::uint64_t demandServiced = 0;
        std::uint64_t prefetchServiced = 0;
    };

    DramChannel(const SimConfig &cfg, unsigned channelId);

    /** @return true iff the request buffer has no free entry. */
    bool bufferFull() const { return buffer_.size() >= bufEntries_; }

    std::size_t bufferOccupancy() const { return buffer_.size(); }

    /**
     * Insert a request, attempting an inter-core merge with a buffered
     * request to the same block first. Caller must have checked
     * bufferFull() (merging is allowed even when full).
     * @return true if the request merged.
     */
    bool insert(MemRequest &&req);

    /**
     * Advance one core cycle: retire in-service requests whose data
     * transfer finished (appended to @p completed) and schedule at most
     * one buffered request onto a ready bank (FR-FCFS, demand first).
     */
    void tick(Cycle now, std::vector<MemRequest> &completed);

    /** @return true iff no request is buffered or in service. */
    bool drained() const { return buffer_.empty() && inService_.empty(); }

    /**
     * Promote a buffered prefetch of @p addr to demand priority (a
     * demand merged with it upstream; Fig. 2b inter-core merging does
     * the same for demands arriving from other cores).
     * @return true if a request was upgraded.
     */
    bool upgradeToDemand(Addr addr);

    /** Map a block address to its bank and row within this channel. */
    DramCoord mapAddr(Addr addr) const;

    /** Banks with an in-progress access at @p now (bank-level par.). */
    unsigned busyBanks(Cycle now) const;

    /** Attach a lifecycle trace recorder (borrowed; may be null). */
    void setTracer(obs::TraceRecorder *tracer) { tracer_ = tracer; }

    /**
     * Earliest cycle >= @p now at which this channel could act: retire
     * an in-service transfer (its doneAt) or schedule a buffered
     * request (its bank's busyUntil). A lower bound on the true next
     * state change — never later (the event-horizon contract).
     */
    Cycle nextEventAt(Cycle now) const;

    /**
     * Monotonic counter bumped whenever timing-relevant channel state
     * changes: a request entering the buffer, a request scheduled onto
     * a bank, or a transfer retired. While it is unchanged, a cached
     * nextEventAt() bound that still lies in the future remains valid
     * — the basis of MemSystem's per-channel horizon cache.
     * upgradeToDemand() deliberately does not bump it: promotion
     * changes which request is picked, never when the channel next
     * acts (the bound is type-independent).
     */
    std::uint64_t stateVersion() const { return stateVersion_; }

    const Counters &counters() const { return counters_; }

    /** Export counters under "<prefix>." into @p set. */
    void exportStats(StatSet &set, const std::string &prefix) const;

    /** tRCD converted to core cycles (exposed for tests). */
    Cycle tRcd() const { return tRcd_; }
    Cycle tCl() const { return tCl_; }
    Cycle tRp() const { return tRp_; }
    Cycle burstCycles() const { return burst_; }

  private:
    static constexpr std::uint64_t noRow = ~0ULL;

    /** Per-bank row-buffer state. */
    struct Bank
    {
        std::uint64_t openRow = noRow;
        Cycle busyUntil = 0;
    };

    /**
     * A buffered request with its coordinates, decoded once at
     * insert() so the per-cycle scheduler walk does no divisions.
     */
    struct Buffered
    {
        MemRequest req;
        unsigned bank;
        std::uint64_t row;
    };

    /** A scheduled request waiting for its data transfer to finish. */
    struct InService
    {
        MemRequest req;
        Cycle doneAt;
    };

    /**
     * Index of the best schedulable request, or -1. Under
     * MTP_SLOW_CHECKS the pick is cross-checked against an exhaustive
     * walk that re-decodes every address with mapAddr().
     */
    int pickRequest(Cycle now) const;

    unsigned channelId_;
    unsigned channels_;
    unsigned numBanks_;
    unsigned blocksPerRow_;
    unsigned bufEntries_;
    bool demandPriority_;
    Cycle tCl_;
    Cycle tRcd_;
    Cycle tRp_;
    Cycle burst_;
    Cycle extraLatency_;

    /** Buffered requests, oldest first (at most bufEntries_). */
    std::vector<Buffered> buffer_;
    std::vector<Bank> banks_;
    /**
     * Buffered requests per bank, for the O(banks) event bound and the
     * scheduler's no-free-bank early exit.
     */
    std::vector<unsigned> bankPending_;
    std::vector<InService> inService_;
    /**
     * doneAt of every in-service request, oldest first. The shared
     * data bus serializes transfers, so completion times are strictly
     * increasing in schedule order and the front is the minimum;
     * retirement pops the same prefix tick() removes from inService_.
     */
    std::deque<Cycle> serviceDoneAts_;
    Cycle busFreeAt_ = 0;
    std::uint64_t stateVersion_ = 0;
    obs::TraceRecorder *tracer_ = nullptr;
    Counters counters_;
};

} // namespace mtp

#endif // MTP_MEM_DRAM_HH
