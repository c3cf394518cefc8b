/**
 * @file
 * Memory transaction type shared by the MRQ, interconnect and DRAM
 * controller. All requests are block-granular; a core's waiting warps
 * are tracked core-side in its MSHR file, so the request itself only
 * carries routing and scheduling state.
 */

#ifndef MTP_MEM_MEM_REQUEST_HH
#define MTP_MEM_MEM_REQUEST_HH

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/types.hh"

namespace mtp {

/** Class of a memory transaction. */
enum class ReqType : std::uint8_t
{
    DemandLoad,  //!< read needed by an executing warp
    DemandStore, //!< write; fire-and-forget
    SwPrefetch,  //!< software prefetch instruction
    HwPrefetch,  //!< hardware-prefetcher generated
};

/** @return true for either prefetch class. */
constexpr bool
isPrefetch(ReqType t)
{
    return t == ReqType::SwPrefetch || t == ReqType::HwPrefetch;
}

/** @return true for demand loads/stores. */
constexpr bool
isDemand(ReqType t)
{
    return !isPrefetch(t);
}

/**
 * One in-flight block transaction. Created at a core's MRQ, possibly
 * merged with other cores' same-block transactions at the DRAM
 * controller's request buffer (Fig. 2b), serviced by a DRAM bank and
 * returned to every sharer core, whose MSHR files know what to do
 * with the data.
 */
struct MemRequest
{
    Addr addr = 0;           //!< block-aligned address
    ReqType type = ReqType::DemandLoad; //!< merged type (demand wins)
    CoreId core = 0;         //!< originating core (first requester)
    Cycle created = 0;       //!< cycle the first transaction was issued
    std::uint16_t bytes = blockBytes; //!< transfer size (32 B segment or
                                      //!< full 64 B block)
    unsigned channel = 0; //!< DRAM channel (set by MemSystem::issue)

    /** Cores that must receive the completion (inter-core merge adds). */
    std::vector<CoreId> sharers;

    /** Construct a fresh single-core request. */
    static MemRequest
    make(Addr block_addr, ReqType type, CoreId core, Cycle now,
         std::uint16_t bytes = blockBytes)
    {
        MemRequest r;
        r.addr = block_addr;
        r.type = type;
        r.core = core;
        r.created = now;
        r.bytes = bytes;
        r.sharers.push_back(core);
        return r;
    }

    /**
     * @return true iff requests of types @p a and @p b may merge: reads
     * (loads and prefetches) merge among themselves; stores only merge
     * with stores.
     */
    static constexpr bool
    mergeable(ReqType a, ReqType b)
    {
        return (a == ReqType::DemandStore) == (b == ReqType::DemandStore);
    }

    /**
     * Merge @p other (same block, mergeable type) into this request.
     * Demand requests dominate the merged type so DRAM priority is
     * preserved.
     */
    void
    mergeFrom(MemRequest &&other)
    {
        if (other.type == ReqType::DemandLoad)
            type = ReqType::DemandLoad;
        bytes = bytes > other.bytes ? bytes : other.bytes;
        for (auto s : other.sharers) {
            if (std::find(sharers.begin(), sharers.end(), s) ==
                sharers.end())
                sharers.push_back(s);
        }
        created = std::min(created, other.created);
    }
};

} // namespace mtp

#endif // MTP_MEM_MEM_REQUEST_HH
