#include <gtest/gtest.h>

#include <sstream>

#include "tests/test_helpers.hh"
#include "trace/kernel_io.hh"
#include "workloads/workload.hh"

namespace mtp {
namespace {

/** Structural equality of two kernels (PCs are reassigned on read). */
void
expectSameKernel(const KernelDesc &a, const KernelDesc &b)
{
    EXPECT_EQ(a.name, b.name);
    EXPECT_EQ(a.warpsPerBlock, b.warpsPerBlock);
    EXPECT_EQ(a.numBlocks, b.numBlocks);
    EXPECT_EQ(a.maxBlocksPerCore, b.maxBlocksPerCore);
    ASSERT_EQ(a.segments.size(), b.segments.size());
    for (std::size_t s = 0; s < a.segments.size(); ++s) {
        const auto &sa = a.segments[s];
        const auto &sb = b.segments[s];
        EXPECT_EQ(sa.trips, sb.trips);
        ASSERT_EQ(sa.insts.size(), sb.insts.size());
        for (std::size_t i = 0; i < sa.insts.size(); ++i) {
            const auto &ia = sa.insts[i];
            const auto &ib = sb.insts[i];
            EXPECT_EQ(ia.op, ib.op);
            EXPECT_EQ(ia.repeat, ib.repeat);
            EXPECT_EQ(ia.destSlot, ib.destSlot);
            EXPECT_EQ(ia.srcSlots[0], ib.srcSlots[0]);
            EXPECT_EQ(ia.regPrefetch, ib.regPrefetch);
            EXPECT_EQ(ia.swPrefetchable, ib.swPrefetchable);
            if (isMemOp(ia.op)) {
                EXPECT_EQ(ia.pattern.base, ib.pattern.base);
                EXPECT_EQ(ia.pattern.threadStride,
                          ib.pattern.threadStride);
                EXPECT_EQ(ia.pattern.iterStride, ib.pattern.iterStride);
                EXPECT_EQ(ia.pattern.elemBytes, ib.pattern.elemBytes);
                EXPECT_EQ(ia.pattern.scatterFrac, ib.pattern.scatterFrac);
                EXPECT_EQ(ia.pattern.scatterSpan, ib.pattern.scatterSpan);
            }
        }
    }
}

KernelDesc
roundTrip(const KernelDesc &k)
{
    std::stringstream ss;
    writeKernel(ss, k);
    return readKernel(ss, "roundtrip");
}

TEST(KernelIo, RoundTripTinyKernels)
{
    expectSameKernel(test::tinyStreamKernel(2, 4, 4, 2),
                     roundTrip(test::tinyStreamKernel(2, 4, 4, 2)));
    expectSameKernel(test::tinyMpKernel(),
                     roundTrip(test::tinyMpKernel()));
    expectSameKernel(test::tinyComputeKernel(),
                     roundTrip(test::tinyComputeKernel()));
}

TEST(KernelIo, RoundTripEveryBenchmark)
{
    for (const auto &name : Suite::memoryIntensiveNames()) {
        Workload w = Suite::get(name, 16);
        expectSameKernel(w.kernel, roundTrip(w.kernel));
    }
    for (const auto &name : Suite::computeNames()) {
        Workload w = Suite::get(name, 16);
        expectSameKernel(w.kernel, roundTrip(w.kernel));
    }
}

TEST(KernelIo, RoundTripTransformedVariants)
{
    Workload w = Suite::get("bfs", 32); // scatter + chains + loops
    for (auto kind : {SwPrefKind::Stride, SwPrefKind::IP,
                      SwPrefKind::Register, SwPrefKind::StrideIP}) {
        KernelDesc variant = w.variant(kind);
        expectSameKernel(variant, roundTrip(variant));
    }
}

TEST(KernelIo, RoundTripKeepsEveryDigitOfScatterFrac)
{
    KernelDesc k = test::tinyStreamKernel(2, 4, 4, 2);
    for (auto &inst : k.segments.front().insts) {
        if (isMemOp(inst.op)) {
            inst.pattern.scatterFrac = 1.0 / 3.0;
            inst.pattern.scatterSpan = 1 << 20;
        }
    }
    KernelDesc back = roundTrip(k);
    for (const auto &inst : back.segments.front().insts) {
        if (isMemOp(inst.op)) {
            EXPECT_EQ(inst.pattern.scatterFrac, 1.0 / 3.0);
        }
    }
}

TEST(KernelIo, RoundTripPreservesSimulation)
{
    SimConfig cfg = test::tinyConfig();
    KernelDesc k = test::tinyStreamKernel(2, 6, 5, 2);
    RunResult a = simulate(cfg, k);
    RunResult b = simulate(cfg, roundTrip(k));
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.warpInsts, b.warpInsts);
}

TEST(KernelIo, ParsesHandWrittenDescription)
{
    std::stringstream ss;
    ss << "# a comment\n"
          "kernel demo\n"
          "grid 4 16 2\n"
          "segment 3\n"
          "  comp 2\n"
          "  load 0 0x1000 4 256 4\n"
          "  load 1 0x2000 48 0 4 0.25 1048576 7 src=0\n"
          "  imul 1 -1\n"
          "  store 1 0x3000 4 256 4\n"
          "  branch\n"
          "end\n"
          "segment 1\n"
          "  comp 1\n"
          "end\n";
    KernelDesc k = readKernel(ss, "demo");
    EXPECT_EQ(k.name, "demo");
    EXPECT_EQ(k.warpsPerBlock, 4u);
    EXPECT_EQ(k.numBlocks, 16u);
    ASSERT_EQ(k.segments.size(), 2u);
    EXPECT_EQ(k.segments[0].trips, 3u);
    const auto &chained = k.segments[0].insts[2];
    EXPECT_EQ(chained.op, Opcode::Load);
    EXPECT_EQ(chained.srcSlots[0], 0);
    EXPECT_NEAR(chained.pattern.scatterFrac, 0.25, 1e-12);
    EXPECT_TRUE(k.finalized());
    EXPECT_EQ(k.warpInstsPerWarp(), 3u * 7u + 1u);
}

/**
 * A comp/load/store line whose operand is missing (here commented out)
 * must stop with a located parse error and exit status 1, not abort on
 * an out-of-range token access.
 */
TEST(KernelIo, MissingOperandIsALocatedError)
{
    for (const char *directive : {"comp", "load", "store"}) {
        std::stringstream ss;
        ss << "kernel bad\n"
              "grid 1 1 1\n"
              "segment 1\n"
           << directive << " # 0x620000000 4 0 4\n"
           << "end\n";
        EXPECT_EXIT(readKernel(ss, "bad.kernel"),
                    ::testing::ExitedWithCode(1), "bad\\.kernel:4")
            << directive;
    }
}

TEST(KernelIo, GridRejectsWrappedAndOverlongFields)
{
    for (const char *grid : {"010 -1 4294967297", "1 -1 1",
                             "1 1 4294967297", "4294967296 1 1",
                             "1 18446744073709551616 1", "1 +1 1"}) {
        std::stringstream ss;
        ss << "kernel bad\ngrid " << grid << "\n";
        EXPECT_EXIT(readKernel(ss, "bad.kernel"),
                    ::testing::ExitedWithCode(1), "bad\\.kernel:2")
            << grid;
    }
}

TEST(KernelIo, LeadingZerosAreDecimal)
{
    std::stringstream ss("kernel k\ngrid 010 0x10 1\nsegment 1\n"
                         "comp 1\nend\n");
    KernelDesc k = readKernel(ss, "k.kernel");
    EXPECT_EQ(k.warpsPerBlock, 10u);
    EXPECT_EQ(k.numBlocks, 16u);
}

TEST(KernelIo, FlagsRoundTrip)
{
    KernelDesc k = test::tinyStreamKernel(1, 1, 2, 1);
    for (auto &seg : k.segments) {
        for (auto &inst : seg.insts) {
            if (inst.op == Opcode::Load) {
                inst.swPrefetchable = false;
                inst.regPrefetch = true;
            }
        }
    }
    k.finalize();
    expectSameKernel(k, roundTrip(k));
}

} // namespace
} // namespace mtp
