/**
 * @file
 * Thread-safe memoizing cache of simulation runs on top of the
 * ParallelExecutor.
 *
 * submit() files a (config, kernel) pair under its Fingerprint and, if
 * the pair is new, enqueues the simulation on the executor; duplicate
 * submissions — sequential or concurrent — attach to the existing
 * entry and never run the simulator twice. Every submission returns
 * the entry's shared_future, so a harness submits each cell of its run
 * matrix once, keeps the handle beside the cell's labels (the
 * executor's workers start chewing immediately), and later blocks on
 * the handles in print order. With a single worker that degenerates
 * to exactly the sequential behaviour; with N workers the wall clock
 * approaches the critical path. Results are bit-identical either way
 * because each run is single-threaded and deterministic.
 *
 * Neither result() nor a returned future's get() may be called from
 * executor worker threads (they block; see ParallelExecutor's header).
 */

#ifndef MTP_DRIVER_RUN_CACHE_HH
#define MTP_DRIVER_RUN_CACHE_HH

#include <atomic>
#include <cstdint>
#include <future>
#include <mutex>
#include <unordered_map>

#include "driver/fingerprint.hh"
#include "driver/parallel_executor.hh"
#include "obs/observer.hh"
#include "sim/gpu.hh"

namespace mtp {
namespace driver {

class RunCache
{
  public:
    /** @param exec executor the simulations are scheduled on (borrowed). */
    explicit RunCache(ParallelExecutor &exec) : exec_(exec) {}

    RunCache(const RunCache &) = delete;
    RunCache &operator=(const RunCache &) = delete;

    /**
     * Ensure a run for (cfg, kernel) is scheduled (or already done)
     * and return its handle. Returns immediately. Thread-safe; every
     * submission of one key returns a future of the same shared state,
     * so get() yields one RunResult object that stays valid for the
     * cache's lifetime.
     *
     * The optional @p ocfg attaches observation (sampling/tracing) to
     * the run if — and only if — this submission is the cache miss
     * that schedules it. Observation is read-only and never part of
     * the Fingerprint, so a later submission of the same (cfg, kernel)
     * with a different ObsConfig hits the existing entry and its
     * ObsConfig is ignored: first submission wins. Callers that need
     * guaranteed trace output for a key must therefore submit it with
     * the ObsConfig before any plain submission of that key.
     */
    std::shared_future<RunResult> submit(const SimConfig &cfg,
                                         const KernelDesc &kernel,
                                         const obs::ObsConfig &ocfg = {});

    /** Blocking lookup: submit(cfg, kernel, ocfg).get(). */
    const RunResult &result(const SimConfig &cfg,
                            const KernelDesc &kernel,
                            const obs::ObsConfig &ocfg = {});

    /** Distinct runs scheduled (cache misses). */
    std::uint64_t misses() const { return misses_.load(); }

    /** Submissions served from an existing entry. */
    std::uint64_t hits() const { return hits_.load(); }

    /** Number of distinct entries. */
    std::size_t size() const;

  private:
    ParallelExecutor &exec_;
    mutable std::mutex mutex_;
    std::unordered_map<Fingerprint, std::shared_future<RunResult>,
                       FingerprintHash>
        entries_;
    std::atomic<std::uint64_t> misses_{0};
    std::atomic<std::uint64_t> hits_{0};
};

} // namespace driver
} // namespace mtp

#endif // MTP_DRIVER_RUN_CACHE_HH
