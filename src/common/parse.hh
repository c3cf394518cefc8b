/**
 * @file
 * The one text-to-number grammar of every input surface: key=value
 * config overrides, kernel description files, CLI flags and
 * environment knobs.
 *
 * Integers are decimal digits, or `0x` followed by hex digits; a
 * leading `-` is accepted only by parseInt. Leading zeros stay
 * decimal (no octal), and blanks and `+` are rejected. Reals are
 * std::from_chars text (a leading `-` allowed) and must be finite.
 * Text outside the grammar or outside [lo, hi] is fatal: the message
 * names @p ctx (a config key, a flag, a `file:line`) and the range.
 */

#ifndef MTP_COMMON_PARSE_HH
#define MTP_COMMON_PARSE_HH

#include <cstdint>
#include <string_view>

namespace mtp {

std::uint64_t parseUint(std::string_view ctx, std::string_view text,
                        std::uint64_t lo, std::uint64_t hi);

std::int64_t parseInt(std::string_view ctx, std::string_view text,
                      std::int64_t lo, std::int64_t hi);

double parseReal(std::string_view ctx, std::string_view text, double lo,
                 double hi);

} // namespace mtp

#endif // MTP_COMMON_PARSE_HH
