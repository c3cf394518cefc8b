/**
 * @file
 * Umbrella public header of the mtprefetch library — a C++20
 * reproduction of "Many-Thread Aware Prefetching Mechanisms for GPGPU
 * Applications" (Lee, Lakshminarayana, Kim, Vuduc; MICRO-43, 2010).
 *
 * Quickstart:
 * @code
 *   mtp::SimConfig cfg;                       // Table II baseline
 *   cfg.hwPref = mtp::HwPrefKind::MTHWP;      // the paper's prefetcher
 *   cfg.throttleEnable = true;                // adaptive throttling
 *   mtp::Workload w = mtp::Suite::get("backprop");
 *   mtp::RunResult r = mtp::simulate(cfg, w.kernel);
 *   std::cout << r.cycles << " cycles, CPI " << r.cpi << '\n';
 * @endcode
 */

#ifndef MTP_MTPREFETCH_HH
#define MTP_MTPREFETCH_HH

#include "common/config.hh"
#include "common/format.hh"
#include "common/log.hh"
#include "common/parse.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "core/mt_hwp.hh"
#include "core/mtaml.hh"
#include "core/prefetcher.hh"
#include "core/sw_prefetch.hh"
#include "core/throttle.hh"
#include "driver/fingerprint.hh"
#include "driver/parallel_executor.hh"
#include "driver/run_cache.hh"
#include "obs/json.hh"
#include "obs/observer.hh"
#include "obs/sampler.hh"
#include "obs/sink.hh"
#include "obs/trace.hh"
#include "sim/gpu.hh"
#include "trace/kernel.hh"
#include "workloads/workload.hh"

#endif // MTP_MTPREFETCH_HH
