#include "common/config.hh"

#include <functional>
#include <limits>
#include <map>
#include <ostream>

#include "common/bitutils.hh"
#include "common/format.hh"
#include "common/log.hh"
#include "common/parse.hh"

namespace mtp {

HwPrefKind
parseHwPrefKind(const std::string &s)
{
    if (s == "none")
        return HwPrefKind::None;
    if (s == "stride_rpt" || s == "rpt")
        return HwPrefKind::StrideRPT;
    if (s == "stride_pc" || s == "stridepc")
        return HwPrefKind::StridePC;
    if (s == "stream")
        return HwPrefKind::Stream;
    if (s == "ghb")
        return HwPrefKind::GHB;
    if (s == "mthwp" || s == "mt_hwp")
        return HwPrefKind::MTHWP;
    MTP_FATAL("unknown hardware prefetcher '", s, "'");
}

SwPrefKind
parseSwPrefKind(const std::string &s)
{
    if (s == "none")
        return SwPrefKind::None;
    if (s == "register" || s == "reg")
        return SwPrefKind::Register;
    if (s == "stride")
        return SwPrefKind::Stride;
    if (s == "ip")
        return SwPrefKind::IP;
    if (s == "stride_ip" || s == "mtswp")
        return SwPrefKind::StrideIP;
    MTP_FATAL("unknown software prefetch scheme '", s, "'");
}

std::string
toString(HwPrefKind kind)
{
    switch (kind) {
      case HwPrefKind::None:      return "none";
      case HwPrefKind::StrideRPT: return "stride_rpt";
      case HwPrefKind::StridePC:  return "stride_pc";
      case HwPrefKind::Stream:    return "stream";
      case HwPrefKind::GHB:       return "ghb";
      case HwPrefKind::MTHWP:     return "mthwp";
    }
    MTP_PANIC("bad HwPrefKind ", static_cast<int>(kind));
}

std::string
toString(SwPrefKind kind)
{
    switch (kind) {
      case SwPrefKind::None:     return "none";
      case SwPrefKind::Register: return "register";
      case SwPrefKind::Stride:   return "stride";
      case SwPrefKind::IP:       return "ip";
      case SwPrefKind::StrideIP: return "stride_ip";
    }
    MTP_PANIC("bad SwPrefKind ", static_cast<int>(kind));
}

namespace {

using Setter = std::function<void(SimConfig &, const std::string &)>;

bool
parseBool(const std::string &key, const std::string &value)
{
    if (value == "1" || value == "true" || value == "yes")
        return true;
    if (value == "0" || value == "false" || value == "no")
        return false;
    MTP_FATAL("bad bool value '", value, "' for key '", key, "'");
}

#define UINT_FIELD(field) \
    {#field, [](SimConfig &c, const std::string &v) { \
        using T = decltype(c.field); \
        c.field = static_cast<T>(parseUint( \
            #field, v, 0, std::numeric_limits<T>::max())); }}
#define DOUBLE_FIELD(field) \
    {#field, [](SimConfig &c, const std::string &v) { \
        c.field = parseReal(#field, v, \
            std::numeric_limits<double>::lowest(), \
            std::numeric_limits<double>::max()); }}
#define BOOL_FIELD(field) \
    {#field, [](SimConfig &c, const std::string &v) { \
        c.field = parseBool(#field, v); }}

const std::map<std::string, Setter> &
setters()
{
    static const std::map<std::string, Setter> table = {
        UINT_FIELD(numCores),
        UINT_FIELD(decodeCycles),
        UINT_FIELD(latencyOther),
        UINT_FIELD(latencyImul),
        UINT_FIELD(latencyFdiv),
        UINT_FIELD(mrqEntries),
        UINT_FIELD(mshrEntries),
        UINT_FIELD(prefMshrEntries),
        UINT_FIELD(maxBlocksPerCore),
        UINT_FIELD(icntLatency),
        UINT_FIELD(icntCoresPerPort),
        UINT_FIELD(dramChannels),
        UINT_FIELD(dramBanks),
        UINT_FIELD(dramRowBytes),
        UINT_FIELD(dramTCL),
        UINT_FIELD(dramTRCD),
        UINT_FIELD(dramTRP),
        UINT_FIELD(memBufEntries),
        UINT_FIELD(dramBusBytesPerCycle),
        UINT_FIELD(memClockNum),
        UINT_FIELD(memClockDen),
        BOOL_FIELD(demandPriority),
        UINT_FIELD(memLatencyExtra),
        UINT_FIELD(prefCacheBytes),
        UINT_FIELD(prefCacheAssoc),
        {"hwPref", [](SimConfig &c, const std::string &v) {
             c.hwPref = parseHwPrefKind(v); }},
        BOOL_FIELD(hwPrefWarpTraining),
        UINT_FIELD(prefDistance),
        UINT_FIELD(prefDegree),
        UINT_FIELD(ipDistanceWarps),
        UINT_FIELD(strideRptEntries),
        UINT_FIELD(strideRptRegionBits),
        UINT_FIELD(stridePcEntries),
        UINT_FIELD(streamEntries),
        UINT_FIELD(ghbEntries),
        UINT_FIELD(ghbCzoneBits),
        UINT_FIELD(ghbIndexEntries),
        UINT_FIELD(pwsEntries),
        UINT_FIELD(gsEntries),
        UINT_FIELD(ipEntries),
        UINT_FIELD(gsPromoteCount),
        UINT_FIELD(ipTrainCount),
        BOOL_FIELD(mthwpPws),
        BOOL_FIELD(mthwpGs),
        BOOL_FIELD(mthwpIp),
        BOOL_FIELD(throttleEnable),
        UINT_FIELD(throttlePeriod),
        UINT_FIELD(throttleInitDegree),
        DOUBLE_FIELD(earlyEvictHigh),
        DOUBLE_FIELD(earlyEvictLow),
        DOUBLE_FIELD(mergeHigh),
        BOOL_FIELD(ghbFeedback),
        BOOL_FIELD(stridePcLateThrottle),
        BOOL_FIELD(schedGreedy),
        BOOL_FIELD(dispatchContiguous),
        BOOL_FIELD(perfectMemory),
        UINT_FIELD(maxCycles),
        BOOL_FIELD(fastForward),
    };
    return table;
}

#undef UINT_FIELD
#undef DOUBLE_FIELD
#undef BOOL_FIELD

} // namespace

SimConfig &
SimConfig::applyOverride(const std::string &kv)
{
    auto eq = kv.find('=');
    if (eq == std::string::npos || eq == 0)
        MTP_FATAL("config override '", kv, "' is not of the form key=value");
    std::string key = kv.substr(0, eq);
    std::string value = kv.substr(eq + 1);
    auto it = setters().find(key);
    if (it == setters().end())
        MTP_FATAL("unknown config key '", key, "'");
    it->second(*this, value);
    return *this;
}

SimConfig &
SimConfig::applyOverrides(const std::vector<std::string> &kvs)
{
    for (const auto &kv : kvs)
        applyOverride(kv);
    return *this;
}

void
SimConfig::validate() const
{
    if (numCores == 0)
        MTP_FATAL("numCores must be > 0");
    if (!isPowerOf2(prefCacheBytes) || prefCacheBytes < blockBytes)
        MTP_FATAL("prefCacheBytes must be a power of two >= ", blockBytes);
    unsigned pref_blocks = prefCacheBytes / blockBytes;
    if (prefCacheAssoc == 0 || pref_blocks % prefCacheAssoc != 0)
        MTP_FATAL("prefCacheAssoc must divide the prefetch cache blocks");
    if (!isPowerOf2(dramRowBytes) || dramRowBytes < blockBytes)
        MTP_FATAL("dramRowBytes must be a power of two >= ", blockBytes);
    if (dramChannels == 0 || dramBanks == 0)
        MTP_FATAL("dramChannels and dramBanks must be > 0");
    if (memClockNum == 0 || memClockDen == 0)
        MTP_FATAL("memory clock ratio must be positive");
    if (prefDegree == 0 || prefDistance == 0)
        MTP_FATAL("prefDegree and prefDistance must be >= 1");
    if (throttleInitDegree > 5)
        MTP_FATAL("throttleInitDegree must be in [0,5]");
    if (mrqEntries == 0 || memBufEntries == 0 || mshrEntries == 0)
        MTP_FATAL("queue sizes must be > 0");
    if (icntCoresPerPort == 0)
        MTP_FATAL("icntCoresPerPort must be > 0");
}

void
SimConfig::dump(std::ostream &os) const
{
    os << "numCores = " << numCores << '\n'
       << "decodeCycles = " << decodeCycles << '\n'
       << "latencyOther = " << latencyOther << '\n'
       << "latencyImul = " << latencyImul << '\n'
       << "latencyFdiv = " << latencyFdiv << '\n'
       << "mrqEntries = " << mrqEntries << '\n'
       << "mshrEntries = " << mshrEntries << '\n'
       << "prefMshrEntries = " << prefMshrEntries << '\n'
       << "maxBlocksPerCore = " << maxBlocksPerCore << '\n'
       << "icntLatency = " << icntLatency << '\n'
       << "icntCoresPerPort = " << icntCoresPerPort << '\n'
       << "dramChannels = " << dramChannels << '\n'
       << "dramBanks = " << dramBanks << '\n'
       << "dramRowBytes = " << dramRowBytes << '\n'
       << "dramTCL = " << dramTCL << '\n'
       << "dramTRCD = " << dramTRCD << '\n'
       << "dramTRP = " << dramTRP << '\n'
       << "memBufEntries = " << memBufEntries << '\n'
       << "dramBusBytesPerCycle = " << dramBusBytesPerCycle << '\n'
       << "memClock = " << memClockNum << '/' << memClockDen << '\n'
       << "demandPriority = " << demandPriority << '\n'
       << "memLatencyExtra = " << memLatencyExtra << '\n'
       << "prefCacheBytes = " << prefCacheBytes << '\n'
       << "prefCacheAssoc = " << prefCacheAssoc << '\n'
       << "hwPref = " << toString(hwPref) << '\n'
       << "hwPrefWarpTraining = " << hwPrefWarpTraining << '\n'
       << "prefDistance = " << prefDistance << '\n'
       << "prefDegree = " << prefDegree << '\n'
       << "ipDistanceWarps = " << ipDistanceWarps << '\n'
       << "strideRptEntries = " << strideRptEntries << '\n'
       << "strideRptRegionBits = " << strideRptRegionBits << '\n'
       << "stridePcEntries = " << stridePcEntries << '\n'
       << "streamEntries = " << streamEntries << '\n'
       << "ghbEntries = " << ghbEntries << '\n'
       << "ghbCzoneBits = " << ghbCzoneBits << '\n'
       << "ghbIndexEntries = " << ghbIndexEntries << '\n'
       << "pwsEntries = " << pwsEntries << '\n'
       << "gsEntries = " << gsEntries << '\n'
       << "ipEntries = " << ipEntries << '\n'
       << "gsPromoteCount = " << gsPromoteCount << '\n'
       << "ipTrainCount = " << ipTrainCount << '\n'
       << "mthwpPws = " << mthwpPws << '\n'
       << "mthwpGs = " << mthwpGs << '\n'
       << "mthwpIp = " << mthwpIp << '\n'
       << "throttleEnable = " << throttleEnable << '\n'
       << "throttlePeriod = " << throttlePeriod << '\n'
       << "throttleInitDegree = " << throttleInitDegree << '\n'
       // The dump is the run-cache key: reals keep every digit.
       << "earlyEvictHigh = " << formatNumber(earlyEvictHigh) << '\n'
       << "earlyEvictLow = " << formatNumber(earlyEvictLow) << '\n'
       << "mergeHigh = " << formatNumber(mergeHigh) << '\n'
       << "ghbFeedback = " << ghbFeedback << '\n'
       << "stridePcLateThrottle = " << stridePcLateThrottle << '\n'
       << "schedGreedy = " << schedGreedy << '\n'
       << "dispatchContiguous = " << dispatchContiguous << '\n'
       << "perfectMemory = " << perfectMemory << '\n'
       << "maxCycles = " << maxCycles << '\n'
       << "fastForward = " << fastForward << '\n';
}

} // namespace mtp
