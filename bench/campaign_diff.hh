/**
 * @file
 * Tolerance-gated comparison of campaign manifests
 * (BENCH_campaign.json) against golden snapshots. Used by
 * `mtp-report campaign diff --gate`, the CI campaign-smoke job, and
 * the campaign unit tests.
 *
 * The comparison walks only the gateable surface of the manifest:
 * non-volatile figures (their table cells and summary metrics) and the
 * schema tag. The "session" block, the provenance header (host and git
 * sha legitimately differ between the golden's producer and the
 * current machine) and figures marked "volatile": true (wall-clock
 * harnesses such as bench_simrate) are ignored.
 *
 * Tolerance schema (documented in DESIGN.md §10): every numeric
 * comparison passes when |cur - gold| <= abs OR the relative error
 * |cur - gold| / max(|gold|, tiny) <= relPct/100. Per-metric rules
 * (glob pattern on the metric path, first match wins) override the
 * default relPct. Text cells and structure (missing/extra figures,
 * tables, rows, columns) are exact.
 */

#ifndef MTP_BENCH_CAMPAIGN_DIFF_HH
#define MTP_BENCH_CAMPAIGN_DIFF_HH

#include <string>
#include <vector>

#include "obs/json.hh"

namespace mtp {
namespace bench {

/** One per-metric tolerance override: glob pattern on the path. */
struct TolRule
{
    std::string pattern; //!< e.g. "fig10_swp/summary/*" ('*' wildcard)
    double relPct = 0.0;
};

/** The gate's numeric slack. */
struct Tolerances
{
    double relPct = 0.0; //!< default relative tolerance, percent
    double abs = 1e-12;  //!< absolute floor (absorbs -0.0 vs 0.0 noise)
    std::vector<TolRule> rules; //!< first matching pattern wins

    /** Effective relative tolerance (percent) for @p path. */
    double relPctFor(const std::string &path) const;
};

/** Simple glob match: '*' matches any run (no '?', no classes). */
bool globMatch(const std::string &pattern, const std::string &text);

/** One gate failure, with enough detail to name the metric. */
struct DiffViolation
{
    enum class Kind
    {
        Structure, //!< missing/extra/mismatched element
        Text,      //!< text cell differs
        Number,    //!< numeric drift beyond tolerance
    };

    Kind kind = Kind::Number;
    std::string path; //!< "figure/table/rowLabel/column" or
                      //!< "figure/summary/metric"
    std::string detail;   //!< structure/text: what differs
    double golden = 0.0;  //!< numeric: expected value
    double current = 0.0; //!< numeric: measured value
    double absDelta = 0.0;
    double relPct = 0.0;    //!< numeric: relative error, percent
    double tolRelPct = 0.0; //!< the tolerance that applied
    double tolAbs = 0.0;

    /** Human-readable one-liner naming the metric and both deltas. */
    std::string describe() const;
};

/**
 * Compare @p current against @p golden under @p tol.
 * @return true when no violations; @p out (appended, not cleared)
 * lists every failure otherwise.
 */
bool diffManifests(const obs::JsonValue &golden,
                   const obs::JsonValue &current, const Tolerances &tol,
                   std::vector<DiffViolation> &out);

/**
 * Load @p path and parse it as a JSON document.
 * @return true on success; @p error describes the failure otherwise.
 */
bool loadManifest(const std::string &path, obs::JsonValue &out,
                  std::string *error);

} // namespace bench
} // namespace mtp

#endif // MTP_BENCH_CAMPAIGN_DIFF_HH
