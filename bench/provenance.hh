/**
 * @file
 * The reproducibility header shared by every campaign-path JSON
 * artifact.
 *
 * Split out of bench/campaign.cc so the self-timing binaries that
 * cannot link the bench suite — bench_obs_overhead is compiled twice,
 * once against the no-obs simulator stack, and the two stacks define
 * the same symbols — still emit the exact same provenance block. The
 * library therefore depends only on mtp_common, which both stacks
 * already link; its JSON helpers are common/format.hh's. For the same
 * reason it holds the one scaled-throttle-period rule every harness
 * shares.
 */

#ifndef MTP_BENCH_PROVENANCE_HH
#define MTP_BENCH_PROVENANCE_HH

#include <string>
#include <vector>

#include "common/format.hh"
#include "common/types.hh"

namespace mtp {
namespace bench {

/** Reproducibility header shared by every campaign-path artifact. */
struct Provenance
{
    std::string paper;
    std::string gitSha; //!< "unknown" outside a git checkout
    std::string host;
    unsigned scaleDiv = 8;
    Cycle throttlePeriod = 0;
    std::vector<std::string> overrides;
    std::vector<std::string> benchFilter;
};

/**
 * The throttle period of a run at 1/@p scaleDiv of the paper's grids:
 * 40000 / scaleDiv cycles, never below 1000, so the period stays
 * proportional to run length.
 */
Cycle scaledThrottlePeriod(unsigned scaleDiv);

/**
 * Collect the git SHA and hostname plus the passed knobs. Field-based
 * (not Options-based) so binaries that hand-parse their CLI can call
 * it; bench/campaign.hh adds the Options overload.
 */
Provenance collectProvenance(unsigned scaleDiv, Cycle throttlePeriod,
                             std::vector<std::string> overrides = {},
                             std::vector<std::string> benchFilter = {});

// The shared JSON writers, also under their bench:: names.
using mtp::appendJsonIndent;
using mtp::appendJsonNumber;
using mtp::appendJsonString;

/** Append the `"provenance": {...}` member (no trailing comma). */
void appendProvenance(std::string &out, const Provenance &p,
                      int indent);

} // namespace bench
} // namespace mtp

#endif // MTP_BENCH_PROVENANCE_HH
