/**
 * @file
 * mtp-perfbench: the repository's end-to-end and per-layer benchmark.
 *
 * One process runs one named workload — a fixed run matrix of paper
 * benchmarks x prefetcher configurations — for a wall-clock budget,
 * checks every simulation it ran, and prints a provenance header
 * followed by one JSON result line (the last line of stdout):
 *
 *   {"correct": true, "attempted": N, "failed": 0,
 *    "metrics": {"wall_s": {"value": 1.93, "unit": "s"}, ...}}
 *
 * Untraced runs (--trace 0) report the end-to-end metrics; traced runs
 * (--trace 1) enable the host profiler between alternating untraced
 * passes and report the per-layer metrics instead, so tracing cost
 * never reaches an end-to-end number. Per-layer host times come from
 * HostProfiler::snapshot() phase self-times and from timers the
 * benchmark wraps around calls into each layer's public functions;
 * nothing inside src/ is instrumented for it.
 *
 * Workloads set model parameters only (benchmarks, prefetcher,
 * throttling, grid scale), never a host-execution knob, so deleting a
 * scheduler mode cannot invalidate them. The seed is XOR-ed into the
 * scatter salt of every scattered load and permutes the run order;
 * the simulator sees nothing but the generated kernels.
 *
 * Usage: mtp-perfbench --workload W --seed N --seconds S --trace 0|1
 *            --golden FILE [--record-golden | --print-inputs]
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench/provenance.hh"
#include "mtprefetch/mtprefetch.hh"
#include "obs/host_profiler.hh"
#include "trace/coalescer.hh"

#ifndef MTP_PERFBENCH_BUILD_TYPE
#define MTP_PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace mtp;
using Clock = std::chrono::steady_clock;

/** Seed 0 leaves every kernel exactly as Suite::get builds it. */
constexpr std::uint64_t kDefaultSeed = 0;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
ratio(double num, double den)
{
    return den != 0.0 ? num / den : 0.0;
}

std::uint64_t
splitmix64(std::uint64_t &state)
{
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

/** Seeded Fisher-Yates; portable (std::shuffle's algorithm is not). */
template <typename T>
void
permute(std::vector<T> &v, std::uint64_t &state)
{
    for (std::size_t i = v.size(); i > 1; --i)
        std::swap(v[i - 1], v[splitmix64(state) % i]);
}

// --- workload definitions ----------------------------------------------

struct ConfigChoice
{
    const char *name;
    HwPrefKind hw;
    bool throttle;
};

constexpr ConfigChoice kNone{"none", HwPrefKind::None, false};
constexpr ConfigChoice kStridePc{"stride_pc", HwPrefKind::StridePC, false};
constexpr ConfigChoice kGhb{"ghb", HwPrefKind::GHB, false};
constexpr ConfigChoice kGhbThrottle{"ghb+throttle", HwPrefKind::GHB, true};
constexpr ConfigChoice kMthwp{"mthwp", HwPrefKind::MTHWP, false};
constexpr ConfigChoice kMthwpThrottle{"mthwp+throttle", HwPrefKind::MTHWP,
                                      true};

/** One figure-like slice of a matrix: benchmarks x configurations. */
struct FigureDef
{
    std::vector<std::string> benches;
    std::vector<ConfigChoice> configs;
};

struct WorkloadDef
{
    std::string name;
    unsigned scale = 1; //!< Suite::get grid divisor
    bool parallel = false; //!< through RunCache + ParallelExecutor
    std::vector<FigureDef> figures;
};

/**
 * The matrix of workload @p name (no figures when the name is
 * unknown). Building it is part of the timed set-up: namesOfType()
 * constructs every benchmark once.
 */
WorkloadDef
defineWorkload(const std::string &name)
{
    WorkloadDef w;
    w.name = name;
    if (name == "stride_prefetch") {
        // The paper's headline configuration: memory-bound, streaming
        // row hits; prefetcher training, the prefetch cache and the
        // throttle engine all do real work.
        w.scale = 8;
        w.figures = {{Suite::namesOfType(WorkloadType::Stride),
                      {kNone, kStridePc, kGhb, kMthwp, kMthwpThrottle}}};
    } else if (name == "uncoal_irregular") {
        // Up to 32 transactions per warp load: coalescer, MRQ merging,
        // DRAM row conflicts and latency-bound idle windows.
        w.scale = 16;
        w.figures = {{Suite::namesOfType(WorkloadType::Uncoal),
                      {kNone, kMthwpThrottle}}};
    } else if (name == "compute_bound") {
        // Issue-bound bypass case: prefetcher or DRAM-path work should
        // not move it.
        w.scale = 4;
        w.figures = {{Suite::computeNames(), {kNone, kMthwp}}};
    } else if (name == "campaign_slice") {
        // Two campaign figures sharing one run cache, HW baselines then
        // throttling: the second figure's baselines and unthrottled
        // runs are cache hits. The figure order stays fixed so the
        // slowest figure is the same one for every seed. bfs
        // is left out: its latency-bound runs would be the whole
        // critical path, and uncoal_irregular already measures them.
        w.scale = 32;
        w.parallel = true;
        std::vector<std::string> mem;
        for (const auto &b : Suite::memoryIntensiveNames()) {
            if (b != "bfs")
                mem.push_back(b);
        }
        w.figures = {
            {mem, {kNone, kStridePc, kGhb, kMthwp}},
            {mem, {kNone, kGhb, kGhbThrottle, kMthwp, kMthwpThrottle}}};
    }
    return w;
}

/** The bench harnesses' rule: throttle period shrinks with the grid. */
SimConfig
makeConfig(const ConfigChoice &c, unsigned scale)
{
    SimConfig cfg;
    cfg.throttlePeriod = std::max<Cycle>(1000, 40000 / scale);
    cfg.hwPref = c.hw;
    cfg.throttleEnable = c.throttle;
    return cfg;
}

/** XOR @p seed into the salt of every scattered load. */
void
seedKernel(KernelDesc &kernel, std::uint64_t seed)
{
    for (auto &seg : kernel.segments) {
        for (auto &inst : seg.insts) {
            if (isMemOp(inst.op) && inst.pattern.scatterFrac > 0.0)
                inst.pattern.scatterSalt ^= seed;
        }
    }
}

// --- generated inputs ----------------------------------------------------

struct Bench
{
    Workload workload; //!< seeded kernel in workload.kernel
    bool seedInvariant = true; //!< kernel identical to the seed-0 one
};

struct Run
{
    std::string label; //!< "<bench>/<config>"
    std::size_t bench = 0;
    ConfigChoice choice;
    SimConfig cfg;
};

struct Inputs
{
    WorkloadDef def;
    std::vector<Bench> benches;
    std::vector<std::vector<Run>> figures; //!< runs in seed-permuted order
    std::size_t distinctRuns = 0;
};

Inputs
buildInputs(const std::string &name, std::uint64_t seed)
{
    Inputs in;
    in.def = defineWorkload(name);
    std::uint64_t order = seed;

    std::map<std::string, std::size_t> benchIndex;
    std::set<std::string> distinct;
    for (const auto &fig : in.def.figures) {
        std::vector<Run> runs;
        for (const auto &b : fig.benches) {
            auto [it, fresh] = benchIndex.emplace(b, in.benches.size());
            if (fresh) {
                Bench bench;
                bench.workload = Suite::get(b, in.def.scale);
                std::uint64_t h0 =
                    driver::hashKernel(bench.workload.kernel);
                seedKernel(bench.workload.kernel, seed);
                bench.seedInvariant =
                    driver::hashKernel(bench.workload.kernel) == h0;
                in.benches.push_back(std::move(bench));
            }
            for (const auto &c : fig.configs) {
                Run r;
                r.label = b + "/" + c.name;
                r.bench = it->second;
                r.choice = c;
                r.cfg = makeConfig(c, in.def.scale);
                distinct.insert(r.label);
                runs.push_back(std::move(r));
            }
        }
        permute(runs, order);
        in.figures.push_back(std::move(runs));
    }
    in.distinctRuns = distinct.size();
    return in;
}

// --- correctness -------------------------------------------------------

std::string
hex64(std::uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

/** Digest of every simulated statistic (names and exact values). */
std::string
statDigest(const StatSet &stats)
{
    driver::Fnv1a h;
    for (const auto &e : stats.entries()) {
        h.add(e.name);
        h.add(e.value);
    }
    return hex64(h.value());
}

bool
startsWith(const std::string &s, const std::string &p)
{
    return s.compare(0, p.size(), p) == 0;
}

bool
endsWith(const std::string &s, const std::string &p)
{
    return s.size() >= p.size() &&
           s.compare(s.size() - p.size(), p.size(), p) == 0;
}

/** A missing statistic reads as NaN, so every comparison with it fails. */
constexpr double kMissing = std::numeric_limits<double>::quiet_NaN();

/** Breaches of the RunResult accounting invariants; empty when sound. */
std::string
invariantBreach(const RunResult &r, const SimConfig &cfg)
{
    static const char *categories[] = {
        "issued",        "idleNoWarps",    "stallMem",
        "stallExecBusy", "stallOperand",   "stallMshrFull",
        "stallIcnt",     "stallFetchBranch", "throttleInhibited"};
    double sum = 0.0;
    for (const char *c : categories)
        sum += r.stats.getOr(std::string("sim.cycles.") + c, kMissing);
    double expect = static_cast<double>(cfg.numCores) *
                    static_cast<double>(r.cycles);
    if (sum != expect)
        return "cycle categories sum to " + std::to_string(sum) +
               ", expected numCores x cycles = " + std::to_string(expect);
    if (r.stats.getOr("sim.cycles.issued", kMissing) !=
        static_cast<double>(r.warpInsts))
        return "sim.cycles.issued != warpInsts";
    double dram = 0.0;
    for (const auto &e : r.stats.entries()) {
        if (startsWith(e.name, "mem.dram") && endsWith(e.name, ".bytes"))
            dram += e.value;
    }
    if (dram != static_cast<double>(r.dramBytes))
        return "sum of mem.dramN.bytes != dramBytes";
    if (r.prefUseful > r.prefFills)
        return "prefUseful > prefFills";
    return {};
}

/** label -> digest, for one workload at one scale. */
using Golden = std::map<std::string, std::string>;

std::string
goldenPrefix(const Inputs &in)
{
    return in.def.name + " s" + std::to_string(in.def.scale) + " ";
}

Golden
loadGolden(const std::string &path, const Inputs &in)
{
    Golden g;
    std::ifstream f(path);
    std::string line;
    std::string prefix = goldenPrefix(in);
    while (std::getline(f, line)) {
        if (!startsWith(line, prefix))
            continue;
        std::istringstream ss(line.substr(prefix.size()));
        std::string label, digest;
        if (ss >> label >> digest)
            g[label] = digest;
    }
    return g;
}

/** Replace this workload's lines of @p path with @p g. */
void
writeGolden(const std::string &path, const Inputs &in, const Golden &g)
{
    std::vector<std::string> keep;
    {
        std::ifstream f(path);
        std::string line;
        std::string prefix = goldenPrefix(in);
        while (std::getline(f, line)) {
            if (!line.empty() && !startsWith(line, prefix))
                keep.push_back(line);
        }
    }
    for (const auto &[label, digest] : g)
        keep.push_back(goldenPrefix(in) + label + " " + digest);
    std::sort(keep.begin(), keep.end());
    std::ofstream out(path);
    for (const auto &line : keep)
        out << line << '\n';
    if (!out)
        MTP_FATAL("cannot write golden file '", path, "'");
}

/** Simulated counts summed over one pass's distinct runs (exact). */
struct SimCounts
{
    double cycles = 0, coreCycles = 0, issued = 0, stallMem = 0;
    double prefFills = 0, prefUseful = 0, prefLate = 0;
    double prefCacheHits = 0, demandTxns = 0, demandLatencySum = 0;
    double rowHits = 0, rowAccesses = 0, bursts = 0;
    double mrqPushes = 0, mrqFullStalls = 0;
    double creditStalls = 0, reqPackets = 0;
    double stepped = 0, skipped = 0, skipAttempts = 0, skipSuccesses = 0;
    double coreTicks = 0, coreTicksElided = 0, queuePops = 0;

    void
    add(const RunResult &r, unsigned numCores)
    {
        cycles += static_cast<double>(r.cycles);
        coreCycles += static_cast<double>(r.cycles) * numCores;
        issued += r.stats.getOr("sim.cycles.issued", 0);
        stallMem += r.stats.getOr("sim.cycles.stallMem", 0);
        prefFills += static_cast<double>(r.prefFills);
        prefUseful += static_cast<double>(r.prefUseful);
        prefLate += static_cast<double>(r.prefLate);
        prefCacheHits += static_cast<double>(r.prefCacheHits);
        demandTxns += static_cast<double>(r.demandTxns);
        demandLatencySum +=
            r.avgDemandLatency * static_cast<double>(r.demandTxns);
        for (const auto &e : r.stats.entries()) {
            const std::string &n = e.name;
            if (startsWith(n, "mem.dram")) {
                if (endsWith(n, ".rowHits")) {
                    rowHits += e.value;
                    rowAccesses += e.value;
                } else if (endsWith(n, ".rowEmpty") ||
                           endsWith(n, ".rowConflicts")) {
                    rowAccesses += e.value;
                } else if (endsWith(n, ".reads") ||
                           endsWith(n, ".writes")) {
                    bursts += e.value;
                }
            } else if (startsWith(n, "mem.core")) {
                if (endsWith(n, ".mrq.pushes"))
                    mrqPushes += e.value;
                else if (endsWith(n, ".mrq.fullStalls"))
                    mrqFullStalls += e.value;
            }
        }
        creditStalls += r.stats.getOr("mem.injCreditStalls", 0);
        reqPackets += r.stats.getOr("mem.reqNet.packets", 0);
        stepped += r.sched.getOr("sim.sched.cyclesStepped", 0);
        skipped += r.sched.getOr("sim.sched.cyclesSkipped", 0);
        skipAttempts += r.sched.getOr("sim.sched.skipAttempts", 0);
        skipSuccesses += r.sched.getOr("sim.sched.skipSuccesses", 0);
        coreTicks += r.sched.getOr("sim.sched.coreTicks", 0);
        coreTicksElided += r.sched.getOr("sim.sched.coreTicksElided", 0);
        queuePops += r.sched.getOr("sim.sched.queuePops", 0);
    }
};

/** Checks every run against its invariants and the golden digests. */
struct Checker
{
    bool checkGolden = true; //!< false while recording
    Golden golden;
    Golden recorded;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    void
    fail(const std::string &label, const std::string &why)
    {
        ++failed;
        std::fprintf(stderr, "perfbench: run %s FAILED: %s\n",
                     label.c_str(), why.c_str());
    }

    /** @return true when the run is correct. */
    bool
    check(const Run &run, const Bench &bench, const RunResult &r)
    {
        ++attempted;
        std::string breach = invariantBreach(r, run.cfg);
        if (!breach.empty()) {
            fail(run.label, breach);
            return false;
        }
        std::string digest = statDigest(r.stats);
        recorded[run.label] = digest;
        if (!checkGolden || !bench.seedInvariant)
            return true;
        auto it = golden.find(run.label);
        if (it == golden.end()) {
            fail(run.label, "no golden digest recorded");
            return false;
        }
        if (it->second != digest) {
            fail(run.label, "stat digest " + digest +
                                " != golden " + it->second);
            return false;
        }
        return true;
    }
};

// --- one pass over the matrix ------------------------------------------

struct PassResult
{
    double wall = 0;    //!< host seconds for the whole matrix
    double runMax = 0;  //!< slowest simulation (serial) or figure
    std::map<std::string, double> runTimes; //!< serial: label -> s
    std::uint64_t runs = 0; //!< distinct simulations completed
    std::uint64_t submitted = 0, steals = 0; //!< parallel matrix only
    unsigned threads = 1;
    SimCounts counts;
    double cpiErrPct = 0; //!< mean |no-prefetch CPI - paper| / paper
};

unsigned
campaignJobs()
{
    return std::max(1u, std::min(4u, std::thread::hardware_concurrency()));
}

/** Fold one distinct run into the pass totals. */
void
account(PassResult &p, const Run &run, const Bench &bench,
        const RunResult &r, std::vector<double> &cpiErrs)
{
    p.counts.add(r, run.cfg.numCores);
    if (run.choice.hw == HwPrefKind::None && !run.choice.throttle) {
        double paper = bench.workload.info.paperBaseCpi;
        cpiErrs.push_back(100.0 * std::fabs(r.cpi - paper) / paper);
    }
}

PassResult
runPass(const Inputs &in, Checker &checker, bool traced)
{
    PassResult p;
    std::vector<double> cpiErrs;
    if (!in.def.parallel) {
        auto t0 = Clock::now();
        for (const auto &fig : in.figures) {
            for (const auto &run : fig) {
                const Bench &bench = in.benches[run.bench];
                auto r0 = Clock::now();
                RunResult r;
                try {
                    obs::HostScope scope(obs::HostPhase::RunTask, traced);
                    r = simulate(run.cfg, bench.workload.kernel);
                } catch (const std::exception &e) {
                    checker.fail(run.label, e.what());
                    ++checker.attempted;
                    continue;
                }
                double dt = secondsSince(r0);
                p.runMax = std::max(p.runMax, dt);
                p.runTimes[run.label] = dt;
                ++p.runs;
                if (checker.check(run, bench, r))
                    account(p, run, bench, r, cpiErrs);
            }
        }
        p.wall = secondsSince(t0);
    } else {
        driver::ParallelExecutor exec(campaignJobs());
        driver::RunCache cache(exec);
        p.threads = exec.threads();
        std::set<std::string> seen;
        auto t0 = Clock::now();
        for (const auto &fig : in.figures) {
            auto f0 = Clock::now();
            for (const auto &run : fig)
                cache.submit(run.cfg, in.benches[run.bench].workload.kernel);
            p.submitted += fig.size();
            for (const auto &run : fig) {
                const Bench &bench = in.benches[run.bench];
                try {
                    const RunResult &r =
                        cache.result(run.cfg, bench.workload.kernel);
                    if (seen.insert(run.label).second &&
                        checker.check(run, bench, r))
                        account(p, run, bench, r, cpiErrs);
                } catch (const std::exception &e) {
                    if (seen.insert(run.label).second) {
                        checker.fail(run.label, e.what());
                        ++checker.attempted;
                    }
                }
            }
            p.runMax = std::max(p.runMax, secondsSince(f0));
        }
        p.wall = secondsSince(t0);
        p.runs = cache.misses();
        p.steals = exec.steals();
    }
    // Summed in a fixed order so the mean is exact across run orders.
    std::sort(cpiErrs.begin(), cpiErrs.end());
    double sum = 0;
    for (double e : cpiErrs)
        sum += e;
    p.cpiErrPct = cpiErrs.empty() ? 0.0 : sum / cpiErrs.size();
    return p;
}

// --- layer replays (traced runs only) ------------------------------------

struct ReplayResult
{
    double nsPerCall = 0;
    double perCall = 0; //!< txns per call / candidates per observation
};

/** Warp accesses replayed per run of a replay, over all kernels. */
constexpr std::uint64_t kReplayAccesses = 200000;

/**
 * Call @p fn(inst, trip, warp) for the memory accesses of the first 256
 * warps of @p k in program order, stopping after the loop trip in
 * which @p cap accesses were reached.
 */
template <typename Fn>
void
forEachWarpAccess(const KernelDesc &k, std::uint64_t cap, Fn fn)
{
    std::uint64_t warps = std::min<std::uint64_t>(k.totalWarps(), 256);
    std::uint64_t visited = 0;
    for (const auto &seg : k.segments) {
        for (std::uint32_t trip = 0; trip < seg.trips && visited < cap;
             ++trip) {
            for (const auto &inst : seg.insts) {
                if (!isMemOp(inst.op))
                    continue;
                for (std::uint64_t w = 0; w < warps; ++w, ++visited)
                    fn(inst, trip, w);
            }
        }
    }
}

/** Median-timed replay of coalesceWarpAccess over the kernels. */
ReplayResult
replayCoalescer(const Inputs &in)
{
    std::uint64_t cap = kReplayAccesses / in.benches.size();
    std::vector<MemTxn> out;
    std::vector<double> ns;
    ReplayResult res;
    for (int rep = 0; rep < 5; ++rep) {
        std::uint64_t calls = 0, txns = 0;
        auto t0 = Clock::now();
        for (const auto &b : in.benches) {
            forEachWarpAccess(b.workload.kernel, cap,
                              [&](const StaticInst &inst,
                                  std::uint32_t trip, std::uint64_t w) {
                                  coalesceWarpAccess(inst.pattern,
                                                     w * warpSize, trip,
                                                     out);
                                  txns += out.size();
                                  ++calls;
                              });
        }
        ns.push_back(1e9 * ratio(secondsSince(t0), calls));
        res.perCall = ratio(static_cast<double>(txns), calls);
    }
    res.nsPerCall = median(ns);
    return res;
}

/**
 * Median-timed replay of HwPrefetcher::observe over each kernel's
 * coalesced demand-load stream, for every prefetching configuration
 * of the workload. The stream is generated before timing starts.
 */
ReplayResult
replayPrefetchers(const Inputs &in)
{
    struct Stream
    {
        std::vector<std::vector<MemTxn>> txns;
        std::vector<PrefObservation> obs;
    };
    std::uint64_t cap = kReplayAccesses / in.benches.size();
    std::vector<Stream> streams(in.benches.size());
    for (std::size_t i = 0; i < in.benches.size(); ++i) {
        const KernelDesc &k = in.benches[i].workload.kernel;
        std::uint64_t slots =
            static_cast<std::uint64_t>(k.warpsPerBlock) * k.maxBlocksPerCore;
        Stream &s = streams[i];
        forEachWarpAccess(k, cap, [&](const StaticInst &inst,
                                      std::uint32_t trip, std::uint64_t w) {
            if (inst.op != Opcode::Load)
                return;
            s.txns.emplace_back();
            coalesceWarpAccess(inst.pattern, w * warpSize, trip,
                               s.txns.back());
            PrefObservation o{};
            o.pc = inst.pc;
            o.hwWid = static_cast<std::uint32_t>(w % slots);
            o.globalWid = w;
            o.leadAddr = inst.pattern.laneAddr(w * warpSize, trip);
            s.obs.push_back(o);
        });
        // Pointers only once the vector has stopped growing.
        for (std::size_t j = 0; j < s.obs.size(); ++j)
            s.obs[j].txns = &s.txns[j];
    }

    std::vector<SimConfig> cfgs;
    std::set<std::string> seen;
    for (const auto &fig : in.figures) {
        for (const auto &run : fig) {
            if (run.choice.hw != HwPrefKind::None &&
                seen.insert(run.choice.name).second)
                cfgs.push_back(run.cfg);
        }
    }

    ReplayResult res;
    std::vector<double> ns;
    std::vector<Addr> cands;
    for (int rep = 0; rep < 5 && !cfgs.empty(); ++rep) {
        std::uint64_t calls = 0, generated = 0;
        double elapsed = 0;
        for (const auto &cfg : cfgs) {
            for (const auto &s : streams) {
                auto pf = makeHwPrefetcher(cfg);
                auto t0 = Clock::now();
                for (const auto &o : s.obs) {
                    cands.clear();
                    pf->observe(o, cands);
                    generated += cands.size();
                }
                elapsed += secondsSince(t0);
                calls += s.obs.size();
            }
        }
        ns.push_back(1e9 * ratio(elapsed, calls));
        res.perCall = ratio(static_cast<double>(generated), calls);
    }
    res.nsPerCall = median(ns);
    return res;
}

// --- output -------------------------------------------------------------

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

void
printResult(const Checker &checker, const std::vector<Metric> &metrics)
{
    for (const auto &m : metrics)
        std::printf("  %-36s %14.6g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    std::string out = "{\"correct\": ";
    out += checker.failed == 0 ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(checker.attempted);
    out += ", \"failed\": " + std::to_string(checker.failed);
    out += ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        if (i)
            out += ", ";
        bench::appendJsonString(out, metrics[i].name);
        out += ": {\"value\": ";
        bench::appendJsonNumber(out, metrics[i].value);
        out += ", \"unit\": ";
        bench::appendJsonString(out, metrics[i].unit);
        out += "}";
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
}

void
printHeader(const Inputs &in, std::uint64_t seed, double seconds,
            bool trace)
{
    std::vector<std::string> names;
    for (const auto &b : in.benches)
        names.push_back(b.workload.info.name);
    bench::Provenance prov = bench::collectProvenance(
        in.def.scale, makeConfig(kNone, in.def.scale).throttlePeriod, {},
        names);
    std::string out = "{\n";
    bench::appendProvenance(out, prov, 1);
    out += ",\n  \"host_threads\": " +
           std::to_string(std::thread::hardware_concurrency());
    out += ",\n  \"build_type\": ";
    bench::appendJsonString(out, MTP_PERFBENCH_BUILD_TYPE);
    out += ",\n  \"workload\": ";
    bench::appendJsonString(out, in.def.name);
    out += ",\n  \"seed\": " + std::to_string(seed);
    out += ",\n  \"default_seed\": " + std::to_string(kDefaultSeed);
    out += ",\n  \"seconds\": ";
    bench::appendJsonNumber(out, seconds);
    out += ",\n  \"trace\": ";
    out += trace ? "true" : "false";
    out += ",\n  \"jobs\": " +
           std::to_string(in.def.parallel ? campaignJobs() : 1u);
    out += ",\n  \"distinct_runs\": " + std::to_string(in.distinctRuns);
    out += "\n}\n";
    std::fputs(out.c_str(), stdout);
    std::fflush(stdout);
}

/** The generated inputs, for checking what the seed changes. */
void
printInputs(const Inputs &in)
{
    for (const auto &b : in.benches)
        std::printf("kernel %s %s\n", b.workload.info.name.c_str(),
                    hex64(driver::hashKernel(b.workload.kernel)).c_str());
    for (const auto &fig : in.figures) {
        for (const auto &run : fig)
            std::printf("run %s\n", run.label.c_str());
    }
}

/** Reset the kernel's peak-RSS mark to the current RSS (Linux). */
void
resetPeakRss()
{
    std::ofstream f("/proc/self/clear_refs");
    f << "5";
}

/** Peak resident memory in MB since the last resetPeakRss(). */
double
peakRssMb()
{
    std::ifstream f("/proc/self/status");
    std::string line;
    while (std::getline(f, line)) {
        if (startsWith(line, "VmHWM:"))
            return std::stod(line.substr(6)) / 1024.0; // kB
    }
    struct rusage ru{};
    ::getrusage(RUSAGE_SELF, &ru); // whole-process peak, KiB on Linux
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

// --- main paths ---------------------------------------------------------

struct Args
{
    std::string workload;
    std::uint64_t seed = kDefaultSeed;
    double seconds = 10;
    bool trace = false;
    std::string golden;
    bool recordGolden = false;
    bool printInputs = false;
};

[[noreturn]] void
usage(const std::string &why)
{
    std::fprintf(stderr,
                 "mtp-perfbench: %s\n"
                 "usage: mtp-perfbench --workload <w> --seed <n> "
                 "--seconds <s> --trace 0|1 --golden <file> "
                 "[--record-golden | --print-inputs]\n"
                 "workloads: stride_prefetch uncoal_irregular "
                 "compute_bound campaign_slice\n",
                 why.c_str());
    std::exit(2);
}

std::uint64_t
parseUnsigned(const std::string &flag, const std::string &v)
{
    if (v.empty() || v.find_first_not_of("0123456789") != std::string::npos)
        usage(flag + " needs a non-negative integer, got '" + v + "'");
    try {
        return std::stoull(v);
    } catch (const std::exception &) {
        usage(flag + " out of range: '" + v + "'");
    }
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    bool haveTrace = false, haveSeed = false;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(arg + " needs a value");
            return argv[++i];
        };
        if (arg == "--workload") {
            a.workload = next();
        } else if (arg == "--seed") {
            a.seed = parseUnsigned(arg, next());
            haveSeed = true;
        } else if (arg == "--seconds") {
            a.seconds = static_cast<double>(parseUnsigned(arg, next()));
        } else if (arg == "--trace") {
            std::string v = next();
            if (v != "0" && v != "1")
                usage("--trace must be 0 or 1");
            a.trace = v == "1";
            haveTrace = true;
        } else if (arg == "--golden") {
            a.golden = next();
        } else if (arg == "--record-golden") {
            a.recordGolden = true;
        } else if (arg == "--print-inputs") {
            a.printInputs = true;
        } else {
            usage("unknown argument '" + arg + "'");
        }
    }
    if (defineWorkload(a.workload).figures.empty())
        usage("unknown workload '" + a.workload + "'");
    if (!haveSeed || !haveTrace || a.golden.empty())
        usage("--seed, --trace and --golden are required");
    if (a.recordGolden && (a.seed != kDefaultSeed || a.trace))
        usage("--record-golden needs the default seed and --trace 0");
    return a;
}

/**
 * Whether another pass fits in the --seconds budget, judged by the
 * mean pass so far, so a run ends near its budget instead of
 * overrunning it by up to one pass.
 */
bool
anotherPassFits(Clock::time_point start, double seconds, std::size_t passes)
{
    double elapsed = secondsSince(start);
    return elapsed + elapsed / static_cast<double>(passes) <= seconds;
}

/**
 * Set-up takes tens of microseconds, so one sample says more about the
 * host's state at that instant than about the code. A batch of builds
 * runs before every pass, spreading the samples over the whole run
 * like the pass times; the metric is their median.
 */
constexpr int kSetupRepsPerPass = 32;

/** Set-up samples: whole input builds and their Suite::get share. */
struct SetupTimes
{
    std::vector<double> setup, kernelBuild;
};

/** Build the inputs a batch of times into @p in, timing each build. */
void
timedSetup(const Args &args, Inputs &in, SetupTimes &times)
{
    for (int i = 0; i < kSetupRepsPerPass; ++i) {
        auto t0 = Clock::now();
        in = buildInputs(args.workload, args.seed);
        times.setup.push_back(secondsSince(t0));
        auto k0 = Clock::now();
        for (const auto &b : in.benches)
            (void)Suite::get(b.workload.info.name, in.def.scale);
        times.kernelBuild.push_back(secondsSince(k0));
    }
}

int
runUntraced(const Args &args)
{
    Inputs in;
    SetupTimes setup;
    timedSetup(args, in, setup);
    printHeader(in, args.seed, args.seconds, false);

    Checker checker;
    checker.checkGolden = !args.recordGolden;
    checker.golden = loadGolden(args.golden, in);

    std::vector<double> wall, runMax, rss;
    std::map<std::string, std::vector<double>> runTimes;
    PassResult p;
    auto start = Clock::now();
    do {
        if (!wall.empty())
            timedSetup(args, in, setup);
        // Per-pass peaks: how many simulations overlap under the
        // executor varies, and one unlucky pass should not set the
        // whole run's figure.
        resetPeakRss();
        p = runPass(in, checker, false);
        rss.push_back(peakRssMb());
        wall.push_back(p.wall);
        runMax.push_back(p.runMax);
        for (const auto &[label, t] : p.runTimes)
            runTimes[label].push_back(t);
    } while (!args.recordGolden &&
             anotherPassFits(start, args.seconds, wall.size()));

    // A serial matrix's time is estimated run by run: the sum of each
    // simulation's median over the passes. Host slowdowns lasting a
    // few seconds then hit single samples of a run instead of whole
    // passes. The parallel matrix only has whole-pass times.
    double matrixS = median(wall);
    double slowestS = median(runMax);
    if (!in.def.parallel && !runTimes.empty()) {
        matrixS = slowestS = 0;
        for (const auto &[label, times] : runTimes) {
            matrixS += median(times);
            slowestS = std::max(slowestS, median(times));
        }
    }

    if (args.recordGolden) {
        if (checker.failed)
            MTP_FATAL("not recording a golden from a failing run");
        writeGolden(args.golden, in, checker.recorded);
        std::fprintf(stderr, "perfbench: recorded %zu digests to %s\n",
                     checker.recorded.size(), args.golden.c_str());
    }
    std::printf("pass wall_s:");
    for (double w : wall)
        std::printf(" %.3f", w);
    std::printf("\n");
    printResult(checker,
                {{"wall_s", matrixS, "s"},
                 {"setup_s", median(setup.setup), "s"},
                 {"sim_kcycles_per_s", p.counts.cycles / matrixS / 1000.0,
                  "kcycles/s"},
                 {"runs_per_s", static_cast<double>(p.runs) / matrixS,
                  "runs/s"},
                 {"run_max_s", slowestS, "s"},
                 {"peak_rss_mb", median(rss), "MB"},
                 {"cpi_err_pct", p.cpiErrPct, "%"}});
    return checker.failed ? 1 : 0;
}

double
phaseS(const obs::HostProfiler::Snapshot &snap, obs::HostPhase p)
{
    std::uint64_t ns = 0;
    for (const auto &t : snap.threads)
        ns += t.phaseNs[static_cast<int>(p)];
    return 1e-9 * static_cast<double>(ns);
}

/** Work (non-wait) self time summed over every profiled thread. */
double
busyS(const obs::HostProfiler::Snapshot &snap)
{
    double s = 0;
    for (int p = 0; p < obs::kNumHostPhases; ++p) {
        if (!obs::isWaitPhase(static_cast<obs::HostPhase>(p)))
            s += phaseS(snap, static_cast<obs::HostPhase>(p));
    }
    return s;
}

int
runTraced(const Args &args)
{
    Inputs in;
    SetupTimes setup;
    timedSetup(args, in, setup);
    printHeader(in, args.seed, args.seconds, true);

    Checker checker;
    checker.golden = loadGolden(args.golden, in);

    ReplayResult coal = replayCoalescer(in);
    ReplayResult pref = replayPrefetchers(in);

    // Alternate untraced and traced passes so both see the same host
    // conditions; the traced ones feed only the per-layer table.
    std::vector<double> plainWall, tracedWall;
    std::vector<double> memTick, memShare, coreTick, coreShare, loopSelf,
        horizon, nsPerBurst, nsPerCoreTick, nsPerPop, lookup, execWait,
        busyFrac, steals;
    PassResult last;
    auto start = Clock::now();
    do {
        if (!plainWall.empty())
            timedSetup(args, in, setup);
        PassResult plain = runPass(in, checker, false);
        plainWall.push_back(plain.wall);

        obs::HostProfiler::enable();
        PassResult p = runPass(in, checker, true);
        obs::HostProfiler::Snapshot snap = obs::HostProfiler::snapshot();
        obs::HostProfiler::disable();
        tracedWall.push_back(p.wall);

        double busy = busyS(snap);
        double mem = phaseS(snap, obs::HostPhase::MemTick);
        double core = phaseS(snap, obs::HostPhase::CoreTick);
        double loop = phaseS(snap, obs::HostPhase::RunTask);
        memTick.push_back(mem);
        memShare.push_back(ratio(mem, busy));
        coreTick.push_back(core);
        coreShare.push_back(ratio(core, busy));
        loopSelf.push_back(loop);
        horizon.push_back(phaseS(snap, obs::HostPhase::HorizonSkip));
        nsPerBurst.push_back(1e9 * ratio(mem, p.counts.bursts));
        nsPerCoreTick.push_back(1e9 * ratio(core, p.counts.coreTicks));
        nsPerPop.push_back(1e9 * ratio(loop, p.counts.queuePops));
        lookup.push_back(phaseS(snap, obs::HostPhase::CacheLookup) +
                         phaseS(snap, obs::HostPhase::CacheInsert));
        execWait.push_back(phaseS(snap, obs::HostPhase::ExecWait));
        double workerBusy = 0;
        for (const auto &t : snap.threads) {
            if (startsWith(t.name, "exec"))
                workerBusy += 1e-9 * static_cast<double>(t.activeNs -
                                                         t.waitNs);
        }
        busyFrac.push_back(in.def.parallel
                               ? ratio(workerBusy, p.threads * p.wall)
                               : 0.0);
        steals.push_back(static_cast<double>(p.steals));
        last = p;
    } while (anotherPassFits(start, args.seconds, plainWall.size()));

    const SimCounts &c = last.counts;
    std::printf("passes: %zu untraced + %zu traced\n", plainWall.size(),
                tracedWall.size());
    printResult(
        checker,
        {{"workloads.kernel_build_s", median(setup.kernelBuild), "s"},
         {"trace.coalesce_ns_per_call", coal.nsPerCall, "ns"},
         {"trace.txns_per_mem_inst", coal.perCall, "txns/inst"},
         {"core.pref_observe_ns_per_call", pref.nsPerCall, "ns"},
         {"core.pref_candidates_per_obs", pref.perCall, "count"},
         {"core.pref_accuracy", ratio(c.prefUseful, c.prefFills), "ratio"},
         {"core.pref_coverage",
          ratio(c.prefCacheHits, c.prefCacheHits + c.demandTxns), "ratio"},
         {"core.pref_late_ratio", ratio(c.prefLate, c.prefFills), "ratio"},
         {"mem.tick_s", median(memTick), "s"},
         {"mem.tick_share", median(memShare), "ratio"},
         {"mem.host_ns_per_dram_burst", median(nsPerBurst), "ns"},
         {"mem.dram_row_hit_rate", ratio(c.rowHits, c.rowAccesses), "ratio"},
         {"mem.mrq_full_stalls_per_push",
          ratio(c.mrqFullStalls, c.mrqPushes), "ratio"},
         {"mem.icnt_credit_stalls_per_packet",
          ratio(c.creditStalls, c.reqPackets), "ratio"},
         {"mem.avg_demand_latency_cycles",
          ratio(c.demandLatencySum, c.demandTxns), "cycles"},
         {"sim.core_tick_s", median(coreTick), "s"},
         {"sim.core_tick_share", median(coreShare), "ratio"},
         {"sim.host_ns_per_core_tick", median(nsPerCoreTick), "ns"},
         {"sim.loop_self_s", median(loopSelf), "s"},
         {"sim.horizon_skip_s", median(horizon), "s"},
         {"sim.skip_success_ratio", ratio(c.skipSuccesses, c.skipAttempts),
          "ratio"},
         {"sim.cycles_skipped_frac",
          ratio(c.skipped, c.skipped + c.stepped), "ratio"},
         {"sim.core_ticks_elided_frac",
          ratio(c.coreTicksElided, c.coreTicksElided + c.coreTicks),
          "ratio"},
         {"sim.host_ns_per_queue_pop", median(nsPerPop), "ns"},
         {"sim.issued_frac", ratio(c.issued, c.coreCycles), "ratio"},
         {"sim.stall_mem_frac", ratio(c.stallMem, c.coreCycles), "ratio"},
         // RunCache::hits() also counts the result() lookups that follow
         // every submit(); the dedup ratio is over submissions alone.
         {"driver.cache_hit_ratio",
          ratio(static_cast<double>(last.submitted - last.runs),
                static_cast<double>(last.submitted)),
          "ratio"},
         {"driver.cache_lookup_s", median(lookup), "s"},
         {"driver.exec_wait_s", median(execWait), "s"},
         {"driver.worker_busy_frac", median(busyFrac), "ratio"},
         {"driver.steals", median(steals), "count"},
         {"traced_overhead_pct",
          100.0 * (ratio(median(tracedWall), median(plainWall)) - 1.0),
          "%"}});
    return checker.failed ? 1 : 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Args args = parseArgs(argc, argv);
    if (args.printInputs) {
        printInputs(buildInputs(args.workload, args.seed));
        return 0;
    }
    return args.trace ? runTraced(args) : runUntraced(args);
}
