#include "driver/run_cache.hh"

#include "obs/host_profiler.hh"

namespace mtp {
namespace driver {

std::shared_future<RunResult>
RunCache::submit(const SimConfig &cfg, const KernelDesc &kernel,
                 const obs::ObsConfig &ocfg)
{
    obs::HostScope hostLookup(obs::HostPhase::CacheLookup);
    Fingerprint fp = fingerprint(cfg, kernel);
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = entries_.find(fp);
    if (it != entries_.end()) {
        hits_.fetch_add(1);
        return it->second;
    }
    misses_.fetch_add(1);
    // Insert time nests inside the lookup span; the profiler's
    // self-time accounting keeps the two rows disjoint.
    obs::HostScope hostInsert(obs::HostPhase::CacheInsert);
    // The job owns copies: the caller's cfg/kernel/ocfg may die before
    // the worker runs. Observation is attached only here, on the miss
    // (first submission wins); it is read-only and keeps results
    // bit-identical, so cache hits stay valid regardless of ocfg.
    std::shared_future<RunResult> future = exec_.submit(
        [cfg, kernel, ocfg]() { return simulate(cfg, kernel, ocfg); });
    entries_.emplace(std::move(fp), future);
    return future;
}

const RunResult &
RunCache::result(const SimConfig &cfg, const KernelDesc &kernel,
                 const obs::ObsConfig &ocfg)
{
    return submit(cfg, kernel, ocfg).get();
}

std::size_t
RunCache::size() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return entries_.size();
}

} // namespace driver
} // namespace mtp
