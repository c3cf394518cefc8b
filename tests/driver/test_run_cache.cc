#include <gtest/gtest.h>

#include <future>
#include <sstream>
#include <thread>
#include <vector>

#include "driver/run_cache.hh"
#include "tests/test_helpers.hh"

namespace mtp {
namespace driver {
namespace {

TEST(Fingerprint, StableAcrossFinalization)
{
    KernelDesc k = test::tinyStreamKernel();
    std::uint64_t before = hashKernel(k);
    k.finalize(); // re-finalizing reassigns PCs
    EXPECT_EQ(hashKernel(k), before);
}

TEST(Fingerprint, SensitiveToEveryContentDimension)
{
    KernelDesc base = test::tinyStreamKernel();
    std::uint64_t h = hashKernel(base);

    KernelDesc renamed = base;
    renamed.name = "other";
    EXPECT_NE(hashKernel(renamed), h);

    KernelDesc regrown = base;
    regrown.numBlocks += 1;
    EXPECT_NE(hashKernel(regrown), h);

    KernelDesc retripped = base;
    retripped.segments[0].trips += 1;
    EXPECT_NE(hashKernel(retripped), h);

    KernelDesc repatterned = base;
    repatterned.segments[0].insts[0].pattern.iterStride *= 2;
    EXPECT_NE(hashKernel(repatterned), h);
}

TEST(Fingerprint, ConfigChangesChangeTheKey)
{
    KernelDesc k = test::tinyMpKernel();
    SimConfig a = test::tinyConfig();
    SimConfig b = a;
    b.mthwpIp = false; // an ablation toggle, not a table size
    EXPECT_FALSE(fingerprint(a, k) == fingerprint(b, k));
    EXPECT_TRUE(fingerprint(a, k) == fingerprint(a, k));
}

TEST(Fingerprint, RealKnobsKeepEveryDigit)
{
    KernelDesc k = test::tinyMpKernel();
    SimConfig a = test::tinyConfig();
    SimConfig b = a;
    a.earlyEvictHigh = 1.5000001;
    b.earlyEvictHigh = 1.5000004; // equal in 6 significant digits
    EXPECT_FALSE(fingerprint(a, k) == fingerprint(b, k));
}

/**
 * Regression test for the old bench cache key, which was
 * name|numBlocks|warpsPerBlock|warpInstsPerWarp. Two kernels that
 * agree on all four but differ in instruction content must not share
 * a cache entry.
 */
TEST(RunCache, SameNameDifferentBodyDoesNotCollide)
{
    // Identical name, geometry and instruction *count*; the second
    // kernel streams at twice the iteration stride.
    KernelDesc a = test::tinyStreamKernel(2, 4, 4, 1, 4096);
    KernelDesc b = test::tinyStreamKernel(2, 4, 4, 1, 8192);

    // The old key cannot tell them apart...
    auto oldKey = [](const KernelDesc &k) {
        std::ostringstream key;
        key << k.name << '|' << k.numBlocks << '|' << k.warpsPerBlock
            << '|' << k.warpInstsPerWarp();
        return key.str();
    };
    ASSERT_EQ(oldKey(a), oldKey(b));

    // ...the content fingerprint can.
    EXPECT_NE(hashKernel(a), hashKernel(b));

    SimConfig cfg = test::tinyConfig();
    cfg.hwPref = HwPrefKind::MTHWP;
    ParallelExecutor exec(2);
    RunCache cache(exec);
    const RunResult &ra = cache.result(cfg, a);
    const RunResult &rb = cache.result(cfg, b);
    EXPECT_NE(&ra, &rb);
    EXPECT_EQ(cache.misses(), 2u);
    EXPECT_EQ(cache.size(), 2u);
    // Different strides really do simulate differently.
    EXPECT_NE(ra.cycles, rb.cycles);
}

TEST(RunCache, MemoizesIdenticalSubmissions)
{
    SimConfig cfg = test::tinyConfig();
    KernelDesc k = test::tinyMpKernel();
    ParallelExecutor exec(2);
    RunCache cache(exec);
    cache.submit(cfg, k);
    cache.submit(cfg, k);
    const RunResult &a = cache.result(cfg, k);
    const RunResult &b = cache.result(cfg, k);
    EXPECT_EQ(&a, &b);
    EXPECT_EQ(cache.misses(), 1u);
    EXPECT_EQ(cache.hits(), 3u);
    EXPECT_EQ(cache.size(), 1u);
}

TEST(RunCache, SubmitFutureAndResultAliasOneRunResult)
{
    SimConfig cfg = test::tinyConfig();
    KernelDesc k = test::tinyMpKernel();
    ParallelExecutor exec(2);
    RunCache cache(exec);
    std::shared_future<RunResult> first = cache.submit(cfg, k);
    std::shared_future<RunResult> again = cache.submit(cfg, k);
    EXPECT_EQ(&first.get(), &again.get());
    EXPECT_EQ(&first.get(), &cache.result(cfg, k));
}

TEST(RunCache, HitsCountDuplicateSubmissionsWhenReadThroughFutures)
{
    SimConfig cfg = test::tinyConfig();
    KernelDesc a = test::tinyMpKernel(2, 4);
    KernelDesc b = test::tinyMpKernel(2, 6);
    ParallelExecutor exec(2);
    RunCache cache(exec);
    std::vector<std::shared_future<RunResult>> runs = {
        cache.submit(cfg, a), cache.submit(cfg, b), cache.submit(cfg, a)};
    for (const auto &run : runs)
        run.get();
    // Reading through the futures adds no lookups: only the one
    // duplicate submission counts as a hit.
    EXPECT_EQ(cache.misses(), 2u);
    EXPECT_EQ(cache.hits(), 1u);
    // Re-deriving a key with result() is another lookup, so it counts.
    cache.result(cfg, b);
    EXPECT_EQ(cache.hits(), 2u);
}

/**
 * ThreadSanitizer-friendly stress: many threads concurrently submit
 * and resolve the same small key set. Exactly one simulation per
 * distinct key may run, and every thread must see the same object.
 */
TEST(RunCache, ConcurrentDuplicateSubmissionsRunOnce)
{
    SimConfig cfg = test::tinyConfig();
    std::vector<KernelDesc> kernels = {
        test::tinyMpKernel(2, 4),
        test::tinyMpKernel(2, 6),
        test::tinyStreamKernel(2, 4, 2),
        test::tinyComputeKernel(),
    };

    ParallelExecutor exec(4);
    RunCache cache(exec);

    constexpr unsigned numThreads = 8;
    constexpr unsigned rounds = 5;
    std::vector<std::vector<const RunResult *>> seen(numThreads);
    std::vector<std::thread> threads;
    for (unsigned t = 0; t < numThreads; ++t) {
        threads.emplace_back([&, t] {
            for (unsigned round = 0; round < rounds; ++round)
                for (const KernelDesc &k : kernels)
                    seen[t].push_back(&cache.result(cfg, k));
        });
    }
    for (auto &th : threads)
        th.join();

    EXPECT_EQ(cache.misses(), kernels.size());
    EXPECT_EQ(cache.size(), kernels.size());
    // Every thread resolved every key to the same cached object.
    for (unsigned t = 1; t < numThreads; ++t)
        EXPECT_EQ(seen[t], seen[0]);
}

} // namespace
} // namespace driver
} // namespace mtp
