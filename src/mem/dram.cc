#include "mem/dram.hh"

#include <algorithm>

#include "common/log.hh"

namespace mtp {

namespace {

/** Convert a DRAM-clock cycle count to core cycles (rounding up). */
Cycle
toCoreCycles(unsigned dram_cycles, unsigned num, unsigned den)
{
    // core_freq / mem_freq = den / num, so t_core = t_mem * den / num.
    return (static_cast<Cycle>(dram_cycles) * den + num - 1) / num;
}

} // namespace

DramChannel::DramChannel(const SimConfig &cfg, unsigned channelId)
    : channelId_(channelId),
      channels_(cfg.dramChannels),
      numBanks_(cfg.dramBanks),
      blocksPerRow_(cfg.dramRowBytes / blockBytes),
      bufEntries_(cfg.memBufEntries),
      demandPriority_(cfg.demandPriority),
      tCl_(toCoreCycles(cfg.dramTCL, cfg.memClockNum, cfg.memClockDen)),
      tRcd_(toCoreCycles(cfg.dramTRCD, cfg.memClockNum, cfg.memClockDen)),
      tRp_(toCoreCycles(cfg.dramTRP, cfg.memClockNum, cfg.memClockDen)),
      burst_(blockBytes / cfg.dramBusBytesPerCycle),
      extraLatency_(cfg.memLatencyExtra),
      banks_(cfg.dramBanks),
      bankPending_(cfg.dramBanks, 0)
{
    MTP_ASSERT(blocksPerRow_ > 0, "row smaller than a block");
    MTP_ASSERT(burst_ > 0, "bus wider than a block");
    buffer_.reserve(bufEntries_);
}

DramCoord
DramChannel::mapAddr(Addr addr) const
{
    // Blocks are channel-interleaved by the memory system; within a
    // channel, consecutive per-channel blocks fill a row, rows are
    // bank-interleaved.
    std::uint64_t per_chan_block = blockIndex(addr) / channels_;
    std::uint64_t global_row = per_chan_block / blocksPerRow_;
    return {static_cast<unsigned>(global_row % numBanks_),
            global_row / numBanks_};
}

bool
DramChannel::insert(MemRequest &&req)
{
    ++stateVersion_;
    for (auto &queued : buffer_) {
        if (queued.req.addr == req.addr &&
            MemRequest::mergeable(queued.req.type, req.type)) {
            queued.req.mergeFrom(std::move(req));
            ++counters_.interCoreMerges;
            return true;
        }
    }
    MTP_ASSERT(!bufferFull(), "insert() into a full DRAM request buffer");
    DramCoord c = mapAddr(req.addr);
    ++bankPending_[c.bank];
    buffer_.push_back({std::move(req), c.bank, c.row});
    return false;
}

bool
DramChannel::upgradeToDemand(Addr addr)
{
    for (auto &queued : buffer_) {
        if (queued.req.addr == addr && isPrefetch(queued.req.type)) {
            queued.req.type = ReqType::DemandLoad;
            return true;
        }
    }
    return false;
}

Cycle
DramChannel::nextEventAt(Cycle now) const
{
    Cycle e = invalidCycle;
    if (!serviceDoneAts_.empty())
        e = serviceDoneAts_.front();
    for (unsigned b = 0; b < banks_.size(); ++b) {
        if (bankPending_[b] == 0)
            continue;
        Cycle ready = banks_[b].busyUntil;
        if (ready <= now)
            return now;
        if (ready < e)
            e = ready;
    }
#if MTP_SLOW_CHECKS
    Cycle scan = invalidCycle;
    for (const auto &svc : inService_)
        scan = std::min(scan, svc.doneAt);
    for (const auto &queued : buffer_)
        scan = std::min(
            scan,
            std::max(now, banks_[mapAddr(queued.req.addr).bank].busyUntil));
    MTP_ASSERT(std::max(e, now) == std::max(scan, now),
               "per-bank event bound disagrees with exhaustive scan");
#endif
    return e;
}

unsigned
DramChannel::busyBanks(Cycle now) const
{
    unsigned n = 0;
    for (const auto &bank : banks_)
        n += bank.busyUntil > now ? 1 : 0;
    return n;
}

int
DramChannel::pickRequest(Cycle now) const
{
    // FR-FCFS with demand priority: walk the buffer oldest-first and
    // remember, per priority class, the first row-hit and the first
    // schedulable request. Demand row-hit > demand > prefetch row-hit >
    // prefetch (Table II: demand has higher priority than prefetch).
    // The first class-0 row hit outranks everything, so the walk stops
    // there; and with no free bank holding buffered work (a channel
    // tick that only retires a transfer) there is nothing to walk.
    int best_hit[2] = {-1, -1};  // [0]: demand, [1]: prefetch
    int best_any[2] = {-1, -1};
    bool bank_ready = false;
    for (unsigned b = 0; b < numBanks_; ++b)
        bank_ready |= bankPending_[b] > 0 && banks_[b].busyUntil <= now;
    for (int i = 0; bank_ready && i < static_cast<int>(buffer_.size());
         ++i) {
        const Buffered &queued = buffer_[i];
        const Bank &bank = banks_[queued.bank];
        if (bank.busyUntil > now)
            continue;
        int cls = (demandPriority_ && isPrefetch(queued.req.type)) ? 1 : 0;
        if (bank.openRow == queued.row) {
            if (cls == 0) {
                best_hit[0] = i;
                break;
            }
            if (best_hit[1] < 0)
                best_hit[1] = i;
        }
        if (best_any[cls] < 0)
            best_any[cls] = i;
    }
    int pick = -1;
    for (int cls = 0; cls < 2 && pick < 0; ++cls)
        pick = best_hit[cls] >= 0 ? best_hit[cls] : best_any[cls];
#if MTP_SLOW_CHECKS
    // The exhaustive walk: every entry, every address re-decoded.
    int scan_hit[2] = {-1, -1};
    int scan_any[2] = {-1, -1};
    for (int i = 0; i < static_cast<int>(buffer_.size()); ++i) {
        const MemRequest &req = buffer_[i].req;
        DramCoord c = mapAddr(req.addr);
        MTP_ASSERT(c.bank == buffer_[i].bank && c.row == buffer_[i].row,
                   "stored DRAM coordinates disagree with mapAddr()");
        const Bank &bank = banks_[c.bank];
        if (bank.busyUntil > now)
            continue;
        int cls = (demandPriority_ && isPrefetch(req.type)) ? 1 : 0;
        if (scan_any[cls] < 0)
            scan_any[cls] = i;
        if (scan_hit[cls] < 0 && bank.openRow == c.row)
            scan_hit[cls] = i;
    }
    int scan = -1;
    for (int cls = 0; cls < 2 && scan < 0; ++cls)
        scan = scan_hit[cls] >= 0 ? scan_hit[cls] : scan_any[cls];
    MTP_ASSERT(pick == scan,
               "FR-FCFS pick disagrees with the exhaustive walk");
#endif
    return pick;
}

void
DramChannel::tick(Cycle now, std::vector<MemRequest> &completed)
{
    // Retire finished data transfers.
    for (std::size_t i = 0; i < inService_.size();) {
        if (inService_[i].doneAt <= now) {
            ++stateVersion_;
            const MemRequest &done = inService_[i].req;
            // Stamped at doneAt, not now: delayed skip-free ticks must
            // not inflate the recorded service time.
            MTP_OBS_HOOK(tracer_,
                         stage(obs::Stage::DramDone, done.addr,
                               static_cast<std::uint8_t>(done.type),
                               done.core, channelId_,
                               inService_[i].doneAt));
            completed.push_back(std::move(inService_[i].req));
            inService_[i] = std::move(inService_.back());
            inService_.pop_back();
        } else {
            ++i;
        }
    }
    while (!serviceDoneAts_.empty() && serviceDoneAts_.front() <= now)
        serviceDoneAts_.pop_front();

    // Schedule at most one request per cycle (command-bus limit).
    int pick = pickRequest(now);
    if (pick < 0)
        return;
    ++stateVersion_;

    MemRequest req = std::move(buffer_[pick].req);
    const unsigned bank_id = buffer_[pick].bank;
    const std::uint64_t row = buffer_[pick].row;
    buffer_.erase(buffer_.begin() + pick);

    MTP_ASSERT(bankPending_[bank_id] > 0, "bank pending-count underflow");
    --bankPending_[bank_id];
    Bank &bank = banks_[bank_id];

    MTP_OBS_HOOK(tracer_,
                 stage(obs::Stage::DramSchedule, req.addr,
                       static_cast<std::uint8_t>(req.type), req.core,
                       channelId_, now));

    Cycle act_cost;
    if (bank.openRow == row) {
        act_cost = 0;
        ++counters_.rowHits;
    } else if (bank.openRow == noRow) {
        act_cost = tRcd_;
        ++counters_.rowEmpty;
    } else {
        act_cost = tRp_ + tRcd_;
        ++counters_.rowConflicts;
    }

    Cycle cas_done = now + act_cost + tCl_;
    Cycle data_start = std::max(cas_done, busFreeAt_);
    // Sparse (32 B) transactions occupy the data bus for half a burst.
    Cycle burst = std::max<Cycle>(1, burst_ * req.bytes / blockBytes);
    Cycle done = data_start + burst;

    bank.openRow = row;
    bank.busyUntil = done;
    busFreeAt_ = done;

    counters_.bytesTransferred += req.bytes;
    if (req.type == ReqType::DemandStore)
        ++counters_.writes;
    else
        ++counters_.reads;
    if (isPrefetch(req.type))
        ++counters_.prefetchServiced;
    else
        ++counters_.demandServiced;

    // The response leaves the controller after the fixed pipeline
    // latency; the bank and bus are free at `done`.
    MTP_ASSERT(serviceDoneAts_.empty() ||
                   serviceDoneAts_.back() < done + extraLatency_,
               "service completion times not monotonic");
    serviceDoneAts_.push_back(done + extraLatency_);
    inService_.push_back({std::move(req), done + extraLatency_});
}

void
DramChannel::exportStats(StatSet &set, const std::string &prefix) const
{
    set.add(prefix + ".reads", static_cast<double>(counters_.reads),
            "read bursts serviced");
    set.add(prefix + ".writes", static_cast<double>(counters_.writes),
            "write bursts serviced");
    set.add(prefix + ".rowHits", static_cast<double>(counters_.rowHits),
            "row-buffer hits");
    set.add(prefix + ".rowEmpty", static_cast<double>(counters_.rowEmpty),
            "accesses to closed banks");
    set.add(prefix + ".rowConflicts",
            static_cast<double>(counters_.rowConflicts),
            "row-buffer conflicts");
    set.add(prefix + ".interCoreMerges",
            static_cast<double>(counters_.interCoreMerges),
            "inter-core merges in the request buffer");
    set.add(prefix + ".bytes",
            static_cast<double>(counters_.bytesTransferred),
            "bytes moved over the data bus");
    set.add(prefix + ".demandServiced",
            static_cast<double>(counters_.demandServiced),
            "demand bursts serviced");
    set.add(prefix + ".prefetchServiced",
            static_cast<double>(counters_.prefetchServiced),
            "prefetch bursts serviced");
}

} // namespace mtp
