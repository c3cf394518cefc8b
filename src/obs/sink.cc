#include "obs/sink.hh"

#include <cstring>

#include "common/format.hh"
#include "common/log.hh"

namespace mtp {
namespace obs {

namespace {

std::FILE *
openOrDie(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        MTP_FATAL("cannot open trace output '", path, "'");
    return f;
}

/** Append the Chrome JSON body of @p ev (no surrounding braces). */
void
appendEventBody(std::string &out, const TraceEvent &ev)
{
    out += "\"name\":";
    appendJsonString(out, ev.name);
    out += ",\"ph\":\"";
    out += ev.ph;
    out += "\",\"pid\":";
    out += std::to_string(ev.pid);
    out += ",\"tid\":";
    out += std::to_string(ev.tid);
    if (ev.ph != 'M') {
        out += ",\"ts\":";
        out += std::to_string(ev.ts);
    }
    if (ev.ph == 'X') {
        out += ",\"dur\":";
        out += std::to_string(ev.dur);
    }
    if (!ev.args.empty() || !ev.sargs.empty()) {
        out += ",\"args\":{";
        bool first = true;
        for (const auto &[key, value] : ev.args) {
            if (!first)
                out += ',';
            first = false;
            appendJsonString(out, key);
            out += ':';
            appendJsonNumber(out, value);
        }
        for (const auto &[key, value] : ev.sargs) {
            if (!first)
                out += ',';
            first = false;
            appendJsonString(out, key);
            out += ':';
            appendJsonString(out, value);
        }
        out += '}';
    }
}

} // namespace

// --- CsvTimeSeriesSink ---------------------------------------------------

CsvTimeSeriesSink::CsvTimeSeriesSink(const std::string &path)
    : file_(openOrDie(path))
{
}

CsvTimeSeriesSink::~CsvTimeSeriesSink()
{
    close();
}

void
CsvTimeSeriesSink::sampleSchema(const std::vector<SampleColumn> &columns)
{
    std::string header = "cycle";
    for (const auto &col : columns) {
        header += ',';
        header += col.name;
    }
    header += '\n';
    std::fwrite(header.data(), 1, header.size(), file_);
}

void
CsvTimeSeriesSink::sample(Cycle cycle, const std::vector<double> &values)
{
    std::string row = std::to_string(cycle);
    for (double v : values) {
        row += ',';
        appendNumber(row, v);
    }
    row += '\n';
    std::fwrite(row.data(), 1, row.size(), file_);
}

void
CsvTimeSeriesSink::close()
{
    if (file_) {
        std::fclose(file_);
        file_ = nullptr;
    }
}

// --- JsonlSink -----------------------------------------------------------

JsonlSink::JsonlSink(const std::string &path) : file_(openOrDie(path)) {}

JsonlSink::~JsonlSink()
{
    close();
}

void
JsonlSink::writeLine(const std::string &line)
{
    std::fwrite(line.data(), 1, line.size(), file_);
}

void
JsonlSink::event(const TraceEvent &ev)
{
    std::string line = "{\"t\":\"event\",";
    appendEventBody(line, ev);
    line += "}\n";
    writeLine(line);
}

void
JsonlSink::sampleSchema(const std::vector<SampleColumn> &columns)
{
    columns_.clear();
    std::string line = "{\"t\":\"schema\",\"columns\":[";
    for (std::size_t i = 0; i < columns.size(); ++i) {
        columns_.push_back(columns[i].name);
        if (i)
            line += ',';
        appendJsonString(line, columns[i].name);
    }
    line += "]}\n";
    writeLine(line);
}

void
JsonlSink::sample(Cycle cycle, const std::vector<double> &values)
{
    std::string line = "{\"t\":\"sample\",\"cycle\":";
    line += std::to_string(cycle);
    line += ",\"v\":{";
    for (std::size_t i = 0; i < values.size(); ++i) {
        if (i)
            line += ',';
        appendJsonString(line, i < columns_.size()
                                   ? columns_[i]
                                   : "col" + std::to_string(i));
        line += ':';
        appendJsonNumber(line, values[i]);
    }
    line += "}}\n";
    writeLine(line);
}

void
JsonlSink::histogram(const std::string &name, const Histogram &h)
{
    std::string line = "{\"t\":\"hist\",\"name\":";
    appendJsonString(line, name);
    line += ",\"count\":";
    line += std::to_string(h.count());
    line += ",\"mean\":";
    appendJsonNumber(line, h.mean());
    line += ",\"min\":";
    appendJsonNumber(line, h.minValue());
    line += ",\"max\":";
    appendJsonNumber(line, h.maxValue());
    line += ",\"underflow\":";
    line += std::to_string(h.underflow());
    line += ",\"overflow\":";
    line += std::to_string(h.overflow());
    line += ",\"buckets\":[";
    for (unsigned i = 0; i < h.buckets(); ++i) {
        if (i)
            line += ',';
        line += std::to_string(h.bucketCount(i));
    }
    line += "]}\n";
    writeLine(line);
}

void
JsonlSink::close()
{
    if (file_) {
        std::fclose(file_);
        file_ = nullptr;
    }
}

// --- ChromeTraceSink -----------------------------------------------------

ChromeTraceSink::ChromeTraceSink(const std::string &path)
    : file_(openOrDie(path))
{
    const char *head = "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
    std::fwrite(head, 1, std::strlen(head), file_);
}

ChromeTraceSink::~ChromeTraceSink()
{
    close();
}

void
ChromeTraceSink::emit(const std::string &record)
{
    std::string out;
    out.reserve(record.size() + 2);
    if (!first_)
        out += ",\n";
    first_ = false;
    out += record;
    std::fwrite(out.data(), 1, out.size(), file_);
}

void
ChromeTraceSink::event(const TraceEvent &ev)
{
    std::string record = "{";
    appendEventBody(record, ev);
    record += '}';
    emit(record);
}

void
ChromeTraceSink::sampleSchema(const std::vector<SampleColumn> &columns)
{
    columns_ = columns;
}

void
ChromeTraceSink::sample(Cycle cycle, const std::vector<double> &values)
{
    // One counter event per column, on the column's track.
    for (std::size_t i = 0; i < values.size() && i < columns_.size();
         ++i) {
        TraceEvent ev;
        ev.name = columns_[i].name;
        ev.ph = 'C';
        ev.ts = cycle;
        ev.pid = columns_[i].pid;
        ev.args.emplace_back("value", values[i]);
        event(ev);
    }
}

void
ChromeTraceSink::close()
{
    if (!file_)
        return;
    const char *tail = "]}\n";
    std::fwrite(tail, 1, std::strlen(tail), file_);
    std::fclose(file_);
    file_ = nullptr;
}

// --- CaptureSink ---------------------------------------------------------

int
CaptureSink::column(const std::string &name) const
{
    for (std::size_t i = 0; i < schema.size(); ++i) {
        if (schema[i].name == name)
            return static_cast<int>(i);
    }
    return -1;
}

} // namespace obs
} // namespace mtp
