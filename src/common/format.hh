/**
 * @file
 * The one number-to-text writer of every machine-readable artifact:
 * StatSet dumps, the observability sinks, the host profile, kernel
 * description files, campaign manifests and the bench harnesses' JSON.
 * The sibling of parse.hh, which reads the same text back.
 *
 * A number is the shortest text that reads back to the same double
 * (std::to_chars, which never consults a locale). JSON has no literal
 * for NaN or infinity, so the JSON writers spell a non-finite value
 * `null`; plain text (CSV, aligned stat dumps) spells it nan or inf.
 * Human-facing tables keep their own fixed-width printf formats: this
 * module is for text a program reads back.
 */

#ifndef MTP_COMMON_FORMAT_HH
#define MTP_COMMON_FORMAT_HH

#include <string>
#include <string_view>
#include <vector>

namespace mtp {

/** Append the shortest round-trip text of @p v (nan/inf as such). */
void appendNumber(std::string &out, double v);

/** The text appendNumber() appends, for stream writers. */
std::string formatNumber(double v);

/** Append @p v as a JSON number: appendNumber, non-finite as null. */
void appendJsonNumber(std::string &out, double v);

/** Escape @p s for embedding between JSON double quotes. */
std::string jsonEscape(std::string_view s);

/** Append @p s as a quoted, escaped JSON string literal. */
void appendJsonString(std::string &out, std::string_view s);

/** Append @p indent levels of 2-space indentation. */
void appendJsonIndent(std::string &out, int indent);

/**
 * Append @p v as a JSON array of strings: `[]` when empty, else one
 * element per line at @p indent + 1 and the closing bracket at
 * @p indent.
 */
void appendJsonStringArray(std::string &out,
                           const std::vector<std::string> &v, int indent);

} // namespace mtp

#endif // MTP_COMMON_FORMAT_HH
