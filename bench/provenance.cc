#include "bench/provenance.hh"

#include <algorithm>
#include <cstdio>
#include <unistd.h>

namespace mtp {
namespace bench {

Cycle
scaledThrottlePeriod(unsigned scaleDiv)
{
    return std::max<Cycle>(1000, 40000 / scaleDiv);
}

Provenance
collectProvenance(unsigned scaleDiv, Cycle throttlePeriod,
                  std::vector<std::string> overrides,
                  std::vector<std::string> benchFilter)
{
    Provenance p;
    p.paper = "Many-Thread Aware Prefetching Mechanisms for GPGPU "
              "Applications (MICRO-43, 2010)";
    p.gitSha = "unknown";
    if (std::FILE *git = ::popen("git rev-parse HEAD 2>/dev/null", "r")) {
        char buf[128] = {0};
        if (std::fgets(buf, sizeof(buf), git)) {
            std::string sha(buf);
            while (!sha.empty() &&
                   (sha.back() == '\n' || sha.back() == '\r'))
                sha.pop_back();
            if (sha.size() == 40 &&
                sha.find_first_not_of("0123456789abcdef") ==
                    std::string::npos)
                p.gitSha = sha;
        }
        ::pclose(git);
    }
    char host[256] = {0};
    if (::gethostname(host, sizeof(host) - 1) == 0 && host[0])
        p.host = host;
    else
        p.host = "unknown";
    p.scaleDiv = scaleDiv;
    p.throttlePeriod = throttlePeriod;
    p.overrides = std::move(overrides);
    p.benchFilter = std::move(benchFilter);
    return p;
}

void
appendProvenance(std::string &out, const Provenance &p, int indent)
{
    appendJsonIndent(out, indent);
    out += "\"provenance\": {\n";
    appendJsonIndent(out, indent + 1);
    out += "\"paper\": ";
    appendJsonString(out, p.paper);
    out += ",\n";
    appendJsonIndent(out, indent + 1);
    out += "\"gitSha\": ";
    appendJsonString(out, p.gitSha);
    out += ",\n";
    appendJsonIndent(out, indent + 1);
    out += "\"host\": ";
    appendJsonString(out, p.host);
    out += ",\n";
    appendJsonIndent(out, indent + 1);
    out += "\"scaleDiv\": ";
    out += std::to_string(p.scaleDiv);
    out += ",\n";
    appendJsonIndent(out, indent + 1);
    out += "\"throttlePeriod\": ";
    out += std::to_string(p.throttlePeriod);
    out += ",\n";
    appendJsonIndent(out, indent + 1);
    out += "\"overrides\": ";
    appendJsonStringArray(out, p.overrides, indent + 1);
    out += ",\n";
    appendJsonIndent(out, indent + 1);
    out += "\"benchFilter\": ";
    appendJsonStringArray(out, p.benchFilter, indent + 1);
    out += '\n';
    appendJsonIndent(out, indent);
    out += '}';
}

} // namespace bench
} // namespace mtp
