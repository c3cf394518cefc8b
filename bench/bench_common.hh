/**
 * @file
 * Shared infrastructure for the figure/table reproduction harnesses.
 *
 * Every `bench_*` binary regenerates one table or figure of the paper's
 * evaluation. By default the launch grids run at 1/8 of the paper's
 * geometry (occupancy and per-warp behaviour unchanged; see DESIGN.md)
 * and the throttle period is scaled with them. Pass `--scale N` to
 * change the divisor (1 = the paper's full grids) and `key=value`
 * pairs to override any SimConfig field.
 */

#ifndef MTP_BENCH_BENCH_COMMON_HH
#define MTP_BENCH_BENCH_COMMON_HH

#include <cstdint>
#include <cstdio>
#include <functional>
#include <future>
#include <string>
#include <unordered_set>
#include <vector>

#include "bench/provenance.hh"
#include "mtprefetch/mtprefetch.hh"

namespace mtp {
namespace bench {

/** Handle of one scheduled simulation (see Runner::submit). */
using RunFuture = std::shared_future<RunResult>;

/** Command-line options common to all harnesses. */
struct Options
{
    unsigned scaleDiv = 8;      //!< grid divisor vs. the paper
    Cycle throttlePeriod = scaledThrottlePeriod(scaleDiv); //!< per --scale
    unsigned jobs = 0;          //!< worker threads (0 = all cores)
    std::string jsonOut;        //!< --json machine-readable output path
    bool quiet = false;         //!< --quiet: suppress human tables
    std::vector<std::string> overrides; //!< SimConfig key=value pairs
    std::vector<std::string> benchmarks; //!< subset filter (--bench a,b)
};

/**
 * A harness-specific flag layered on top of the common CLI. Extra
 * flags are matched *before* the common set, so a harness can shadow
 * a common flag when its axis needs a different shape.
 */
struct FlagSpec
{
    std::string name;        //!< e.g. "--out"
    bool takesValue = true;  //!< consumes the following argv entry
    std::function<void(const std::string &)> handler;
};

/** Parse argv; recognises --scale, --bench, --jobs, --json, --quiet,
 *  key=value overrides and any @p extra harness flags. Unknown flags
 *  and malformed numeric values are fatal with a consistent message
 *  across every harness. Harness runs are never observed, so there is
 *  no --sample-period. @p extraUsage is appended to the --help line. */
Options parseArgs(int argc, char **argv,
                  const std::vector<FlagSpec> &extra = {},
                  const std::string &extraUsage = "");

/** Table II baseline with the scaled throttle period + overrides. */
SimConfig baseConfig(const Options &opts);

/** Names to run: the subset filter or @p fallback. */
std::vector<std::string> selectBenchmarks(
    const Options &opts, const std::vector<std::string> &fallback);

/** A compact subset covering all three classes, for large sweeps. */
const std::vector<std::string> &sweepSubset();

/** Geometric mean of @p values (1.0 when empty). */
double geomean(const std::vector<double> &values);

/** Print the harness banner: title + paper reference + setup. */
void banner(const std::string &title, const std::string &reference,
            const Options &opts);

/**
 * Memoized, parallel simulation front end of every harness.
 *
 * Backed by the driver's work-stealing executor and its thread-safe
 * RunCache (keyed by the full config dump plus a content hash of the
 * kernel's instruction stream — see src/driver/fingerprint.hh).
 * Within one harness the same baseline run backs several columns, and
 * duplicate submissions cost nothing.
 *
 * A harness builds each (config, kernel) cell of its run matrix once:
 * submit() schedules the run and returns its handle, which the harness
 * keeps beside the cell's row/column labels while it submits the rest.
 * It then renders in its natural order, blocking on each handle's
 * get(). Rendering happens on the main thread, so the output is
 * deterministic and byte-identical for every --jobs value.
 */
class Runner
{
  public:
    explicit Runner(const Options &opts)
        : exec_(opts.jobs), cache_(exec_)
    {
    }

    /**
     * Schedule a simulation of @p kernel under @p cfg (or attach to
     * the identical run already scheduled) without waiting for it.
     * get() on the returned handle blocks until the run finishes.
     */
    RunFuture
    submit(const SimConfig &cfg, const KernelDesc &kernel)
    {
        recordFingerprint(cfg, kernel);
        return cache_.submit(cfg, kernel);
    }

    /** Worker threads actually in use. */
    unsigned jobs() const { return exec_.threads(); }

    /** Submissions served from an existing cache entry. */
    std::uint64_t cacheHits() const { return cache_.hits(); }

    /** Distinct runs scheduled (cache misses). */
    std::uint64_t cacheMisses() const { return cache_.misses(); }

    /** Runs that have finished executing so far. */
    std::uint64_t executed() const { return exec_.executed(); }

    /** Runs stolen across worker deques (load-imbalance telemetry). */
    std::uint64_t steals() const { return exec_.steals(); }

    /**
     * Normalized fingerprint tag of every distinct run submitted, in
     * first-submission order: "<kernel>:<config hash>:<kernel hash>".
     */
    const std::vector<std::string> &fingerprints() const { return fps_; }

  private:
    void recordFingerprint(const SimConfig &cfg,
                           const KernelDesc &kernel);

    driver::ParallelExecutor exec_;
    driver::RunCache cache_;
    std::vector<std::string> fps_;
    std::unordered_set<std::string> fpSeen_;
};

/**
 * One benchmark's row of a harness run matrix: its labels, the handle
 * of its no-prefetching baseline run and the handles of its other
 * cells in submission order.
 */
struct MatrixRow
{
    std::string name;
    WorkloadType type;
    RunFuture base;
    std::vector<RunFuture> runs;
};

/** Speedup of @p run over @p base: base cycles / run cycles. */
inline double
speedup(const RunFuture &base, const RunFuture &run)
{
    return static_cast<double>(base.get().cycles) / run.get().cycles;
}

} // namespace bench
} // namespace mtp

#endif // MTP_BENCH_BENCH_COMMON_HH
