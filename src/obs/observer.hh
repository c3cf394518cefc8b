/**
 * @file
 * The per-run observability façade. An Observer owns the sinks chosen
 * by an ObsConfig, the periodic Sampler, and the TraceRecorder. The
 * tracer exists if and only if an event sink is attached (a JSONL or
 * Chrome file, or a test's addCapture()), and then it records both the
 * request-lifecycle and the throttle streams. The GPU registers its
 * probes against the sampler and hands the tracer pointer to the
 * components that emit lifecycle events; everything tears down
 * together in finish().
 *
 * ObsConfig deliberately lives outside SimConfig: observation never
 * changes simulated results, so it must not enter the run-cache
 * fingerprint (two runs differing only in trace outputs share one
 * cache entry).
 */

#ifndef MTP_OBS_OBSERVER_HH
#define MTP_OBS_OBSERVER_HH

#include <memory>
#include <string>
#include <vector>

#include "common/types.hh"
#include "obs/sampler.hh"
#include "obs/sink.hh"
#include "obs/trace.hh"

namespace mtp {
namespace obs {

/** What to write and where. All off by default. */
struct ObsConfig
{
    /** Sample period in cycles; 0 disables periodic sampling. */
    Cycle samplePeriod = 0;

    /** CSV time-series output path ("" = off). */
    std::string timeSeriesCsv;

    /** JSONL event/sample output path ("" = off). */
    std::string jsonlPath;

    /** Chrome trace-event JSON output path ("" = off). */
    std::string chromePath;

    /**
     * Merge host-profiler tracks (DESIGN.md §11) into this run's
     * event sinks at finish(): one Perfetto track per host thread
     * (real microseconds since the run's observer was created) plus a
     * `host.simCycle` clock-sync counter correlating host time with
     * the cycle-denominated sim tracks. Enables the process-wide
     * HostProfiler as a side effect. Like every ObsConfig field it
     * never enters the run-cache fingerprint and cannot perturb
     * simulated results. Note the profiler is global: when several
     * runs trace concurrently, each merged trace carries the host
     * activity of *all* threads over its own window, so host tracks
     * are most readable with a single traced run.
     */
    bool hostProfile = false;

    bool wantsSampling() const { return samplePeriod > 0; }

    /** Anything at all to do? simulate() builds no Observer when false. */
    bool
    enabled() const
    {
        return wantsSampling() || !timeSeriesCsv.empty() ||
               !jsonlPath.empty() || !chromePath.empty() || hostProfile;
    }
};

/** Owns sinks + sampler + tracer for one simulation run. */
class Observer
{
  public:
    explicit Observer(const ObsConfig &cfg);
    ~Observer();

    Observer(const Observer &) = delete;
    Observer &operator=(const Observer &) = delete;

    const ObsConfig &config() const { return cfg_; }

    Sampler &sampler() { return sampler_; }
    const Sampler &sampler() const { return sampler_; }

    /** Null until an event sink (file or addCapture()) is attached. */
    TraceRecorder *tracer() { return tracer_.get(); }

    /**
     * Attach an in-memory capture sink (owned by the observer) that
     * receives samples and trace events, creating the tracer if no
     * file sink did; call before the Gpu is constructed.
     */
    CaptureSink *addCapture();

    /** Name a Perfetto track via a process_name metadata event. */
    void declareTrack(int pid, const std::string &name);

    /**
     * Record a host-time ↔ sim-cycle correlation point (the GPU calls
     * this at sample boundaries). No-op unless hostProfile is set.
     * Must be called from the run's coordinating thread only.
     */
    void recordHostSync(Cycle simCycle);

    /** Flush histograms and close every sink; idempotent. */
    void finish();

  private:
    void addSink(std::unique_ptr<EventSink> sink, bool forSampler,
                 bool forTracer);
    void emitHostTracks();

    ObsConfig cfg_;
    std::vector<std::unique_ptr<EventSink>> owned_;
    std::vector<EventSink *> all_;
    Sampler sampler_;
    std::unique_ptr<TraceRecorder> tracer_;
    std::uint64_t hostStartNs_ = 0;
    std::vector<std::pair<std::uint64_t, Cycle>> hostSync_;
    bool finished_ = false;
};

/**
 * Derive a per-run output path from @p base by inserting ".<runTag>"
 * before the extension ("out/trace.json" + "mp" -> "out/trace.mp.json";
 * no extension appends ".<runTag>").
 */
std::string perRunPath(const std::string &base, const std::string &runTag);

/**
 * Disambiguate the per-run tags of one run matrix: any name shared by
 * several entries gets a "-<16 hex>" suffix from the corresponding
 * @p fingerprints entry (e.g. the driver's kernel content hash), so
 * perRunPath() outputs cannot collide. Unique names pass through
 * unchanged. Entries that share both name and fingerprint are the same
 * run (one cache entry, one output) and keep identical tags.
 */
std::vector<std::string>
uniqueRunTags(const std::vector<std::string> &names,
              const std::vector<std::uint64_t> &fingerprints);

} // namespace obs
} // namespace mtp

#endif // MTP_OBS_OBSERVER_HH
