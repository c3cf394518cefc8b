#include "obs/trace.hh"

#include <cinttypes>
#include <cstdio>

#include "common/log.hh"

namespace mtp {
namespace obs {

namespace {

std::string
hexAddr(Addr addr)
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "0x%" PRIx64,
                  static_cast<std::uint64_t>(addr));
    return buf;
}

constexpr std::size_t
stageIndex(Stage s)
{
    return static_cast<std::size_t>(s);
}

/** Does this stage's event belong on the channel track? */
constexpr bool
isChannelStage(Stage s)
{
    return s == Stage::DramEnqueue || s == Stage::DramSchedule ||
           s == Stage::DramDone;
}

} // namespace

const char *
toString(Stage s)
{
    switch (s) {
      case Stage::Coalesce:
        return "coalesce";
      case Stage::MrqEnqueue:
        return "mrq_enq";
      case Stage::IcntInject:
        return "icnt_inject";
      case Stage::DramEnqueue:
        return "dram_enq";
      case Stage::DramSchedule:
        return "dram_sched";
      case Stage::DramDone:
        return "dram_done";
      case Stage::Return:
        return "return";
    }
    return "?";
}

const char *
toString(PrefEvent ev)
{
    switch (ev) {
      case PrefEvent::Issued:
        return "issued";
      case PrefEvent::DroppedThrottle:
        return "dropped_throttle";
      case PrefEvent::DroppedResident:
        return "dropped_resident";
      case PrefEvent::DroppedFull:
        return "dropped_full";
      case PrefEvent::LateMerge:
        return "late_merge";
      case PrefEvent::Fill:
        return "fill";
      case PrefEvent::Useful:
        return "useful";
      case PrefEvent::EarlyEvict:
        return "early_evict";
    }
    return "?";
}

const char *
reqTypeName(std::uint8_t type)
{
    switch (type) {
      case 0:
        return "load";
      case 1:
        return "store";
      case 2:
        return "sw_pref";
      case 3:
        return "hw_pref";
    }
    return "?";
}

void
TraceRecorder::addSink(EventSink *sink)
{
    MTP_ASSERT(sink, "null sink");
    sinks_.push_back(sink);
}

void
TraceRecorder::emit(const TraceEvent &ev)
{
    for (auto *sink : sinks_)
        sink->event(ev);
}

void
TraceRecorder::coalesce(CoreId core, Addr leadAddr, std::uint8_t type,
                        std::size_t txns, Cycle now)
{
    TraceEvent ev;
    ev.name = std::string("req:") + toString(Stage::Coalesce);
    ev.ph = 'i';
    ev.ts = now;
    ev.pid = trackForCore(core);
    ev.args.emplace_back("txns", static_cast<double>(txns));
    ev.sargs.emplace_back("addr", hexAddr(leadAddr));
    ev.sargs.emplace_back("type", reqTypeName(type));
    emit(ev);
}

void
TraceRecorder::stage(Stage s, Addr addr, std::uint8_t type, CoreId core,
                     unsigned channel, Cycle now)
{
    MTP_ASSERT(s != Stage::Coalesce, "use coalesce() for that stage");

    auto [it, fresh] = inflight_.try_emplace(addr);
    if (fresh)
        it->second.fill(invalidCycle);
    it->second[stageIndex(s)] = now;

    TraceEvent ev;
    ev.name = std::string("req:") + toString(s);
    ev.ph = 'i';
    ev.ts = now;
    ev.pid = isChannelStage(s) ? trackForChannel(channel)
                               : trackForCore(core);
    ev.sargs.emplace_back("addr", hexAddr(addr));
    ev.sargs.emplace_back("type", reqTypeName(type));
    emit(ev);

    // Stores complete at the controller (no response); everything else
    // closes out when its response reaches a core.
    if (s == Stage::Return || (s == Stage::DramDone && type == 1))
        finalize(addr, type, core, channel, s, now);
}

void
TraceRecorder::finalize(Addr addr, std::uint8_t type, CoreId core,
                        unsigned channel, Stage lastStage, Cycle now)
{
    auto it = inflight_.find(addr);
    if (it == inflight_.end())
        return; // a later sharer of an already-finalized response
    const auto &ts = it->second;

    auto at = [&](Stage s) { return ts[stageIndex(s)]; };
    auto span = [&](Stage from, Stage to, Histogram &h) {
        if (at(from) != invalidCycle && at(to) != invalidCycle)
            h.sample(static_cast<double>(at(to) - at(from)));
    };
    span(Stage::MrqEnqueue, Stage::IcntInject, histMrq_);
    span(Stage::IcntInject, Stage::DramEnqueue, histIcntReq_);
    span(Stage::DramEnqueue, Stage::DramSchedule, histDramQueue_);
    span(Stage::DramSchedule, Stage::DramDone, histDramSvc_);
    if (lastStage == Stage::Return)
        span(Stage::DramDone, Stage::Return, histIcntResp_);

    if (at(Stage::DramSchedule) != invalidCycle &&
        at(Stage::DramDone) != invalidCycle) {
        TraceEvent ev;
        ev.name = std::string("dram:") + reqTypeName(type);
        ev.ph = 'X';
        ev.ts = at(Stage::DramSchedule);
        ev.dur = at(Stage::DramDone) - at(Stage::DramSchedule);
        ev.pid = trackForChannel(channel);
        ev.sargs.emplace_back("addr", hexAddr(addr));
        emit(ev);
    }
    if (at(Stage::MrqEnqueue) != invalidCycle) {
        Cycle total = now - at(Stage::MrqEnqueue);
        histTotal_.sample(static_cast<double>(total));
        TraceEvent ev;
        ev.name = std::string("mem:") + reqTypeName(type);
        ev.ph = 'X';
        ev.ts = at(Stage::MrqEnqueue);
        ev.dur = total;
        ev.pid = trackForCore(core);
        ev.sargs.emplace_back("addr", hexAddr(addr));
        emit(ev);
        ++completed_;
    }
    inflight_.erase(it);
}

void
TraceRecorder::pref(PrefEvent evKind, Addr addr, CoreId core, Cycle now)
{
    TraceEvent ev;
    ev.name = std::string("pref:") + toString(evKind);
    ev.ph = 'i';
    ev.ts = now;
    ev.pid = trackForCore(core);
    ev.sargs.emplace_back("addr", hexAddr(addr));
    emit(ev);
}

void
TraceRecorder::throttleUpdate(CoreId core, Cycle now, std::uint64_t update,
                              std::uint64_t dFills, std::uint64_t dEarly,
                              std::uint64_t dUseful, double mergeRatio,
                              unsigned degree)
{
    TraceEvent ev;
    ev.name = "throttle:update";
    ev.ph = 'i';
    ev.ts = now;
    ev.pid = trackForCore(core);
    ev.args.emplace_back("update", static_cast<double>(update));
    ev.args.emplace_back("fills", static_cast<double>(dFills));
    ev.args.emplace_back("early", static_cast<double>(dEarly));
    ev.args.emplace_back("useful", static_cast<double>(dUseful));
    ev.args.emplace_back("mergeRatio", mergeRatio);
    ev.args.emplace_back("degree", static_cast<double>(degree));
    emit(ev);
}

void
TraceRecorder::finish()
{
    if (finished_)
        return;
    finished_ = true;
    for (auto *sink : sinks_) {
        sink->histogram("latency.mrqWait", histMrq_);
        sink->histogram("latency.icntReq", histIcntReq_);
        sink->histogram("latency.dramQueue", histDramQueue_);
        sink->histogram("latency.dramService", histDramSvc_);
        sink->histogram("latency.icntResp", histIcntResp_);
        sink->histogram("latency.total", histTotal_);
    }
}

} // namespace obs
} // namespace mtp
