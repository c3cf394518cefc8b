#include "common/parse.hh"

#include <charconv>
#include <cmath>
#include <limits>

#include "common/log.hh"

namespace mtp {

namespace {

/** Decimal or 0x-hex digits, the whole of @p text, without overflow. */
bool
magnitude(std::string_view text, std::uint64_t &out)
{
    int base = 10;
    if (text.size() > 2 && text[0] == '0' && text[1] == 'x') {
        base = 16;
        text.remove_prefix(2);
    }
    const char *end = text.data() + text.size();
    auto [ptr, ec] = std::from_chars(text.data(), end, out, base);
    return !text.empty() && ec == std::errc() && ptr == end;
}

} // namespace

std::uint64_t
parseUint(std::string_view ctx, std::string_view text, std::uint64_t lo,
          std::uint64_t hi)
{
    std::uint64_t v = 0;
    if (!magnitude(text, v) || v < lo || v > hi)
        MTP_FATAL(ctx, " expects an integer in [", lo, ", ", hi,
                  "], got '", text, "'");
    return v;
}

std::int64_t
parseInt(std::string_view ctx, std::string_view text, std::int64_t lo,
         std::int64_t hi)
{
    constexpr auto kMax =
        static_cast<std::uint64_t>(std::numeric_limits<std::int64_t>::max());
    bool neg = !text.empty() && text[0] == '-';
    std::uint64_t mag = 0;
    bool ok = magnitude(text.substr(neg ? 1 : 0), mag) && mag <= kMax + neg;
    // Negate in unsigned arithmetic so INT64_MIN's magnitude converts.
    auto v = static_cast<std::int64_t>(neg ? 0 - mag : mag);
    if (!ok || v < lo || v > hi)
        MTP_FATAL(ctx, " expects an integer in [", lo, ", ", hi,
                  "], got '", text, "'");
    return v;
}

double
parseReal(std::string_view ctx, std::string_view text, double lo,
          double hi)
{
    double v = 0.0;
    const char *end = text.data() + text.size();
    auto [ptr, ec] = std::from_chars(text.data(), end, v);
    if (text.empty() || ec != std::errc() || ptr != end ||
        !std::isfinite(v) || v < lo || v > hi)
        MTP_FATAL(ctx, " expects a number in [", lo, ", ", hi,
                  "], got '", text, "'");
    return v;
}

} // namespace mtp
