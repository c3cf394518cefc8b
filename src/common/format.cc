#include "common/format.hh"

#include <array>
#include <charconv>
#include <cmath>

namespace mtp {

namespace {

void
appendEscaped(std::string &out, std::string_view s)
{
    for (char c : s) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\r':
            out += "\\r";
            break;
          case '\t':
            out += "\\t";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                const char *hex = "0123456789abcdef";
                out += "\\u00";
                out += hex[(c >> 4) & 0xf];
                out += hex[c & 0xf];
            } else {
                out += c;
            }
            break;
        }
    }
}

} // namespace

void
appendNumber(std::string &out, double v)
{
    // 24 characters cover the longest shortest form, e.g.
    // -2.2250738585072014e-308.
    std::array<char, 32> buf;
    auto res = std::to_chars(buf.data(), buf.data() + buf.size(), v);
    out.append(buf.data(), res.ptr);
}

std::string
formatNumber(double v)
{
    std::string out;
    appendNumber(out, v);
    return out;
}

void
appendJsonNumber(std::string &out, double v)
{
    if (std::isfinite(v))
        appendNumber(out, v);
    else
        out += "null";
}

std::string
jsonEscape(std::string_view s)
{
    std::string out;
    out.reserve(s.size());
    appendEscaped(out, s);
    return out;
}

void
appendJsonString(std::string &out, std::string_view s)
{
    out += '"';
    appendEscaped(out, s);
    out += '"';
}

void
appendJsonIndent(std::string &out, int indent)
{
    out.append(static_cast<std::size_t>(indent) * 2, ' ');
}

void
appendJsonStringArray(std::string &out, const std::vector<std::string> &v,
                      int indent)
{
    if (v.empty()) {
        out += "[]";
        return;
    }
    out += "[\n";
    for (std::size_t i = 0; i < v.size(); ++i) {
        appendJsonIndent(out, indent + 1);
        appendJsonString(out, v[i]);
        if (i + 1 < v.size())
            out += ',';
        out += '\n';
    }
    appendJsonIndent(out, indent);
    out += ']';
}

} // namespace mtp
