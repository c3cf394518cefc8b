#include <gtest/gtest.h>

#include "mem/dram.hh"
#include "tests/test_helpers.hh"

namespace mtp {
namespace {

SimConfig
dramConfig()
{
    SimConfig cfg;
    cfg.dramChannels = 1;
    cfg.dramBanks = 2;
    cfg.memBufEntries = 8;
    cfg.memLatencyExtra = 0; // expose raw bank timing to the tests
    return cfg;
}

MemRequest
mk(Addr addr, ReqType type = ReqType::DemandLoad)
{
    return MemRequest::make(blockAlign(addr), type, 0, 0);
}

/** Drive the channel until @p n requests complete; @return end cycle. */
Cycle
runUntil(DramChannel &ch, unsigned n, std::vector<MemRequest> &done,
         Cycle start = 0)
{
    Cycle now = start;
    while (done.size() < n) {
        ch.tick(now, done);
        ++now;
        EXPECT_LT(now, 100000u) << "DRAM test did not converge";
        if (now >= 100000u)
            break;
    }
    return now;
}

TEST(Dram, TimingConversionToCoreCycles)
{
    SimConfig cfg = dramConfig();
    DramChannel ch(cfg, 0);
    // 1.2 GHz DRAM / 900 MHz core: t_core = ceil(t_mem * 3 / 4).
    EXPECT_EQ(ch.tCl(), (11u * 3 + 3) / 4);
    EXPECT_EQ(ch.tRcd(), (11u * 3 + 3) / 4);
    EXPECT_EQ(ch.tRp(), (13u * 3 + 3) / 4);
    EXPECT_EQ(ch.burstCycles(), blockBytes / cfg.dramBusBytesPerCycle);
}

TEST(Dram, RowHitFasterThanConflict)
{
    SimConfig cfg = dramConfig();
    DramChannel ch(cfg, 0);
    std::vector<MemRequest> done;

    // Two accesses in the same row: the second is a row hit.
    ch.insert(mk(0x0000));
    runUntil(ch, 1, done);
    ch.insert(mk(0x0040));
    Cycle t0 = runUntil(ch, 2, done);
    EXPECT_EQ(ch.counters().rowHits, 1u);
    EXPECT_EQ(ch.counters().rowEmpty, 1u);

    // Now a far-away row in the same bank: conflict.
    std::uint64_t conflict_stride =
        static_cast<std::uint64_t>(cfg.dramRowBytes / blockBytes) *
        blockBytes * cfg.dramBanks; // next row group, same bank
    ch.insert(mk(conflict_stride * 64));
    Cycle t1 = runUntil(ch, 3, done);
    EXPECT_EQ(ch.counters().rowConflicts, 1u);
    // Conflict service must be longer than the row hit's.
    EXPECT_GT(t1 - t0, ch.tRp());
}

TEST(Dram, DemandPriorityOverPrefetch)
{
    SimConfig cfg = dramConfig();
    DramChannel ch(cfg, 0);
    std::vector<MemRequest> done;
    // Fill the buffer: prefetch first, then a demand to another bank.
    ch.insert(mk(0x00000, ReqType::HwPrefetch));
    ch.insert(mk(0x10000, ReqType::HwPrefetch));
    ch.insert(mk(0x20000, ReqType::DemandLoad));
    // The scheduler must pick the demand before the queued prefetches
    // that share its bank; service order: first prefetch was scheduled
    // at cycle 0 (buffer scan), so just check the demand beats the
    // second prefetch.
    runUntil(ch, 3, done);
    auto pos = [&](ReqType t, Addr a) {
        for (std::size_t i = 0; i < done.size(); ++i)
            if (done[i].type == t && done[i].addr == a)
                return static_cast<int>(i);
        return -1;
    };
    EXPECT_LT(pos(ReqType::DemandLoad, 0x20000),
              pos(ReqType::HwPrefetch, 0x10000));
}

/**
 * One bank, one buffer holding every FR-FCFS class (Table II). With
 * row R0 open, the buffer holds, oldest first: a prefetch to R2, a
 * prefetch to R1, a prefetch hit on R0, a demand to R1 and a demand
 * hit on R0. The bank serializes service, so completion order is pick
 * order.
 */
std::vector<Addr>
serviceOrder(bool demandPriority)
{
    SimConfig cfg = dramConfig();
    cfg.demandPriority = demandPriority;
    DramChannel ch(cfg, 0);
    const Addr r0 = 0x0000, r1 = 0x1000, r2 = 0x2000;
    for (Addr a : {r0, r1, r2})
        EXPECT_EQ(ch.mapAddr(a).bank, 0u);
    EXPECT_EQ(ch.mapAddr(r1).row, ch.mapAddr(r0).row + 1);
    EXPECT_EQ(ch.mapAddr(r2).row, ch.mapAddr(r0).row + 2);

    std::vector<MemRequest> done;
    ch.insert(mk(r0)); // opens R0
    Cycle t = runUntil(ch, 1, done);
    done.clear();
    ch.insert(mk(r2, ReqType::HwPrefetch));
    ch.insert(mk(r1 + 0x40, ReqType::HwPrefetch));
    ch.insert(mk(r0 + 0x80, ReqType::SwPrefetch));
    ch.insert(mk(r1, ReqType::DemandLoad));
    ch.insert(mk(r0 + 0x40, ReqType::DemandLoad));
    runUntil(ch, 5, done, t);
    std::vector<Addr> order;
    for (const auto &req : done)
        order.push_back(req.addr);
    return order;
}

TEST(Dram, FrFcfsClassOrderWithDemandPriority)
{
    // Demand row hit first, then the demand miss over the prefetch row
    // hit on R0; with R1 now open its prefetch hit beats the older R2
    // prefetch, and the R0 prefetch goes last.
    EXPECT_EQ(serviceOrder(true),
              (std::vector<Addr>{0x0040, 0x1000, 0x1040, 0x2000, 0x0080}));
}

TEST(Dram, FrFcfsWithoutDemandPriorityIgnoresType)
{
    // One class: the oldest row hit, else the oldest request.
    EXPECT_EQ(serviceOrder(false),
              (std::vector<Addr>{0x0080, 0x0040, 0x2000, 0x1040, 0x1000}));
}

TEST(Dram, SparseBurstIsShorter)
{
    SimConfig cfg = dramConfig();
    DramChannel ch(cfg, 0);
    std::vector<MemRequest> done;
    MemRequest sparse = mk(0x0000);
    sparse.bytes = 32;
    ch.insert(std::move(sparse));
    runUntil(ch, 1, done);
    EXPECT_EQ(ch.counters().bytesTransferred, 32u);
    ch.insert(mk(0x0040)); // dense, row hit
    runUntil(ch, 2, done);
    EXPECT_EQ(ch.counters().bytesTransferred, 32u + 64u);
}

TEST(Dram, InterCoreMerging)
{
    SimConfig cfg = dramConfig();
    DramChannel ch(cfg, 0);
    MemRequest a = MemRequest::make(0x40, ReqType::DemandLoad, 0, 0);
    MemRequest b = MemRequest::make(0x40, ReqType::HwPrefetch, 1, 1);
    EXPECT_FALSE(ch.insert(std::move(a)));
    EXPECT_TRUE(ch.insert(std::move(b))); // merged
    EXPECT_EQ(ch.counters().interCoreMerges, 1u);
    std::vector<MemRequest> done;
    runUntil(ch, 1, done);
    ASSERT_EQ(done.size(), 1u);
    EXPECT_EQ(done[0].sharers.size(), 2u);
    EXPECT_EQ(done[0].type, ReqType::DemandLoad);
}

TEST(Dram, UpgradeBufferedPrefetch)
{
    SimConfig cfg = dramConfig();
    DramChannel ch(cfg, 0);
    ch.insert(mk(0x40, ReqType::SwPrefetch));
    EXPECT_TRUE(ch.upgradeToDemand(0x40));
    EXPECT_FALSE(ch.upgradeToDemand(0x80));
    std::vector<MemRequest> done;
    runUntil(ch, 1, done);
    EXPECT_EQ(done[0].type, ReqType::DemandLoad);
}

TEST(Dram, ExtraLatencyDelaysResponseNotBank)
{
    SimConfig cfg = dramConfig();
    DramChannel fast(cfg, 0);
    cfg.memLatencyExtra = 500;
    DramChannel slow(cfg, 0);
    std::vector<MemRequest> done_fast, done_slow;
    fast.insert(mk(0x0));
    slow.insert(mk(0x0));
    Cycle t_fast = runUntil(fast, 1, done_fast);
    Cycle t_slow = runUntil(slow, 1, done_slow);
    EXPECT_EQ(t_slow - t_fast, 500u);
}

TEST(Dram, DrainedTracksOutstandingWork)
{
    SimConfig cfg = dramConfig();
    DramChannel ch(cfg, 0);
    EXPECT_TRUE(ch.drained());
    ch.insert(mk(0x0));
    EXPECT_FALSE(ch.drained());
    std::vector<MemRequest> done;
    runUntil(ch, 1, done);
    EXPECT_TRUE(ch.drained());
}

} // namespace
} // namespace mtp
