#include "bench/campaign.hh"

#include <cstdio>

#include "bench/harnesses.hh"
#include "common/log.hh"

namespace mtp {
namespace bench {

const std::vector<CampaignSpec> &
campaignSpecs()
{
    static const std::vector<CampaignSpec> specs = {
        specTab02Config(),
        specTab03Characteristics(),
        specTab04Nonmem(),
        specTab06Cost(),
        specFig07Mtaml(),
        specFig08Latency(),
        specFig10Swp(),
        specFig11SwpThrottle(),
        specFig12EarlyBw(),
        specFig13HwBaselines(),
        specFig14MthwpAblation(),
        specFig15HwThrottle(),
        specFig16PcacheSize(),
        specFig17Distance(),
        specFig18Cores(),
        specAblDegree(),
        specAblLocality(),
        specAblThrottleMetrics(),
    };
    return specs;
}

const CampaignSpec *
findSpec(const std::string &name)
{
    for (const auto &spec : campaignSpecs()) {
        if (spec.name == name)
            return &spec;
    }
    return nullptr;
}

// --- human rendering ----------------------------------------------------

namespace {

std::string
formatCell(const Cell &c)
{
    if (c.kind == Cell::Kind::Text)
        return c.text;
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", c.prec, c.num);
    return buf;
}

} // namespace

void
renderFigure(std::FILE *out, const CampaignSpec &spec,
             const FigureResult &result)
{
    std::fprintf(out, "\n== %s — %s [%s] ==\n", spec.anchor.c_str(),
                 spec.title.c_str(), spec.name.c_str());
    for (const Table &t : result.tables) {
        if (result.tables.size() > 1 && !t.name.empty())
            std::fprintf(out, "\n-- %s --\n", t.name.c_str());
        else
            std::fprintf(out, "\n");

        const std::size_t cols = t.columns.size();
        std::vector<std::size_t> width(cols);
        std::vector<bool> numeric(cols, false);
        for (std::size_t c = 0; c < cols; ++c)
            width[c] = t.columns[c].size();
        for (const auto &row : t.rows) {
            for (std::size_t c = 0; c < cols && c < row.size(); ++c) {
                width[c] = std::max(width[c], formatCell(row[c]).size());
                if (row[c].kind == Cell::Kind::Number)
                    numeric[c] = true;
            }
        }
        auto printRow = [&](const std::vector<std::string> &cells,
                            const std::vector<bool> &right) {
            for (std::size_t c = 0; c < cells.size(); ++c) {
                int w = static_cast<int>(width[c]);
                std::fprintf(out, "%s%*s", c ? "  " : "",
                             right[c] ? w : -w, cells[c].c_str());
            }
            std::fprintf(out, "\n");
        };
        printRow(t.columns, numeric);
        for (const auto &row : t.rows) {
            std::vector<std::string> cells;
            std::vector<bool> right;
            for (std::size_t c = 0; c < cols && c < row.size(); ++c) {
                cells.push_back(formatCell(row[c]));
                right.push_back(row[c].kind == Cell::Kind::Number);
            }
            printRow(cells, right);
        }
    }
    if (!result.summary.empty()) {
        std::fprintf(out, "\nsummary:\n");
        for (const auto &[name, value] : result.summary)
            std::fprintf(out, "  %-28s %.4f\n", name.c_str(), value);
    }
    for (const auto &note : result.notes)
        std::fprintf(out, "# %s\n", note.c_str());
}

// --- provenance ---------------------------------------------------------

Provenance
collectProvenance(const Options &opts)
{
    return collectProvenance(opts.scaleDiv, opts.throttlePeriod,
                             opts.overrides, opts.benchmarks);
}

// --- live progress ------------------------------------------------------

void
CampaignProgress::bind(const Runner *runner)
{
    std::lock_guard<std::mutex> lock(mutex_);
    runner_ = runner;
}

void
CampaignProgress::beginFigure(std::size_t index, std::size_t total,
                              const std::string &name)
{
    std::lock_guard<std::mutex> lock(mutex_);
    figIndex_ = index;
    figTotal_ = total;
    figure_ = name;
    figStart_ = std::chrono::steady_clock::now();
    if (runner_) {
        figStartMisses_ = runner_->cacheMisses();
        figStartExecuted_ = runner_->executed();
    }
}

void
CampaignProgress::finish()
{
    std::lock_guard<std::mutex> lock(mutex_);
    runner_ = nullptr;
}

CampaignProgress::View
CampaignProgress::view() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    View v;
    v.active = runner_ != nullptr;
    v.figIndex = figIndex_;
    v.figTotal = figTotal_;
    v.figure = figure_;
    if (runner_) {
        v.figSeconds =
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - figStart_)
                .count();
        v.hits = runner_->cacheHits();
        v.misses = runner_->cacheMisses();
        v.executed = runner_->executed();
        v.figStartMisses = figStartMisses_;
        v.figStartExecuted = figStartExecuted_;
    }
    return v;
}

// --- campaign execution -------------------------------------------------

CampaignResult
runCampaign(const Options &opts, const std::vector<std::string> &only,
            CampaignProgress *progress,
            const std::function<void(const FigureRun &)> &onFigure)
{
    std::vector<const CampaignSpec *> selected;
    if (only.empty()) {
        for (const auto &spec : campaignSpecs())
            selected.push_back(&spec);
    } else {
        for (const auto &name : only) {
            const CampaignSpec *spec = findSpec(name);
            if (!spec)
                MTP_FATAL("unknown campaign figure '", name,
                          "' (mtp-campaign --list prints them)");
            selected.push_back(spec);
        }
    }

    CampaignResult res;
    res.provenance = collectProvenance(opts);

    Runner runner(opts);
    res.jobs = runner.jobs();
    if (progress)
        progress->bind(&runner);

    auto t0 = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < selected.size(); ++i) {
        const CampaignSpec *spec = selected[i];
        if (progress)
            progress->beginFigure(i, selected.size(), spec->name);
        std::size_t fpStart = runner.fingerprints().size();
        auto f0 = std::chrono::steady_clock::now();

        FigureRun fr;
        fr.spec = spec;
        fr.result = spec->run(runner, opts);
        fr.wallSeconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - f0)
                             .count();
        fr.fingerprints.assign(
            runner.fingerprints().begin() +
                static_cast<std::ptrdiff_t>(fpStart),
            runner.fingerprints().end());
        if (onFigure)
            onFigure(fr);
        res.figures.push_back(std::move(fr));
    }
    res.wallSeconds = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
    res.runsExecuted = runner.cacheMisses();
    res.cacheHits = runner.cacheHits();
    res.cacheMisses = runner.cacheMisses();
    res.steals = runner.steals();
    res.executorThreads = runner.jobs();
    res.runsPerSec = res.wallSeconds > 0.0
                         ? static_cast<double>(res.runsExecuted) /
                               res.wallSeconds
                         : 0.0;
    if (progress)
        progress->finish();
    return res;
}

// --- JSON emission ------------------------------------------------------

void
writeJsonValue(std::string &out, const obs::JsonValue &v, int indent)
{
    using Kind = obs::JsonValue::Kind;
    switch (v.kind) {
    case Kind::Null:
        out += "null";
        break;
    case Kind::Bool:
        out += v.boolean ? "true" : "false";
        break;
    case Kind::Number:
        appendJsonNumber(out, v.number);
        break;
    case Kind::String:
        appendJsonString(out, v.str);
        break;
    case Kind::Array: {
        if (v.array.empty()) {
            out += "[]";
            break;
        }
        out += "[\n";
        for (std::size_t i = 0; i < v.array.size(); ++i) {
            appendJsonIndent(out, indent + 1);
            writeJsonValue(out, v.array[i], indent + 1);
            if (i + 1 < v.array.size())
                out += ',';
            out += '\n';
        }
        appendJsonIndent(out, indent);
        out += ']';
        break;
    }
    case Kind::Object: {
        if (v.object.empty()) {
            out += "{}";
            break;
        }
        out += "{\n";
        std::size_t i = 0;
        for (const auto &[key, value] : v.object) {
            appendJsonIndent(out, indent + 1);
            appendJsonString(out, key);
            out += ": ";
            writeJsonValue(out, value, indent + 1);
            if (++i < v.object.size())
                out += ',';
            out += '\n';
        }
        appendJsonIndent(out, indent);
        out += '}';
        break;
    }
    }
}

namespace {

void
appendTableJson(std::string &out, const Table &t, int indent)
{
    appendJsonIndent(out, indent);
    out += "{\n";
    appendJsonIndent(out, indent + 1);
    out += "\"name\": ";
    appendJsonString(out, t.name);
    out += ",\n";
    appendJsonIndent(out, indent + 1);
    out += "\"columns\": ";
    appendJsonStringArray(out, t.columns, indent + 1);
    out += ",\n";
    appendJsonIndent(out, indent + 1);
    out += "\"rows\": [";
    if (t.rows.empty()) {
        out += "]\n";
    } else {
        out += '\n';
        for (std::size_t r = 0; r < t.rows.size(); ++r) {
            const auto &row = t.rows[r];
            appendJsonIndent(out, indent + 2);
            out += '{';
            for (std::size_t c = 0;
                 c < row.size() && c < t.columns.size(); ++c) {
                if (c)
                    out += ", ";
                appendJsonString(out, t.columns[c]);
                out += ": ";
                if (row[c].kind == Cell::Kind::Number)
                    appendJsonNumber(out, row[c].num);
                else
                    appendJsonString(out, row[c].text);
            }
            out += '}';
            if (r + 1 < t.rows.size())
                out += ',';
            out += '\n';
        }
        appendJsonIndent(out, indent + 1);
        out += "]\n";
    }
    appendJsonIndent(out, indent);
    out += '}';
}

void
appendFigureJson(std::string &out, const CampaignSpec &spec,
                 const FigureResult &r,
                 const std::vector<std::string> &fingerprints,
                 int indent)
{
    appendJsonIndent(out, indent);
    out += "{\n";
    appendJsonIndent(out, indent + 1);
    out += "\"name\": ";
    appendJsonString(out, spec.name);
    out += ",\n";
    appendJsonIndent(out, indent + 1);
    out += "\"title\": ";
    appendJsonString(out, spec.title);
    out += ",\n";
    appendJsonIndent(out, indent + 1);
    out += "\"anchor\": ";
    appendJsonString(out, spec.anchor);
    out += ",\n";
    appendJsonIndent(out, indent + 1);
    out += "\"volatile\": false,\n";
    appendJsonIndent(out, indent + 1);
    out += "\"runs\": ";
    out += std::to_string(fingerprints.size());
    out += ",\n";
    appendJsonIndent(out, indent + 1);
    out += "\"fingerprints\": ";
    appendJsonStringArray(out, fingerprints, indent + 1);
    out += ",\n";
    appendJsonIndent(out, indent + 1);
    out += "\"tables\": [";
    if (r.tables.empty()) {
        out += "],\n";
    } else {
        out += '\n';
        for (std::size_t i = 0; i < r.tables.size(); ++i) {
            appendTableJson(out, r.tables[i], indent + 2);
            if (i + 1 < r.tables.size())
                out += ',';
            out += '\n';
        }
        appendJsonIndent(out, indent + 1);
        out += "],\n";
    }
    appendJsonIndent(out, indent + 1);
    out += "\"summary\": {";
    if (r.summary.empty()) {
        out += "},\n";
    } else {
        out += '\n';
        for (std::size_t i = 0; i < r.summary.size(); ++i) {
            appendJsonIndent(out, indent + 2);
            appendJsonString(out, r.summary[i].first);
            out += ": ";
            appendJsonNumber(out, r.summary[i].second);
            if (i + 1 < r.summary.size())
                out += ',';
            out += '\n';
        }
        appendJsonIndent(out, indent + 1);
        out += "},\n";
    }
    appendJsonIndent(out, indent + 1);
    out += "\"notes\": ";
    appendJsonStringArray(out, r.notes, indent + 1);
    out += '\n';
    appendJsonIndent(out, indent);
    out += '}';
}

} // namespace

void
writeManifest(std::ostream &os, const CampaignResult &res,
              bool includeSession)
{
    std::string out;
    out += "{\n";
    appendJsonIndent(out, 1);
    out += "\"schema\": \"mtp-campaign-v1\",\n";
    appendProvenance(out, res.provenance, 1);
    out += ",\n";
    if (includeSession) {
        appendJsonIndent(out, 1);
        out += "\"session\": {\n";
        appendJsonIndent(out, 2);
        out += "\"jobs\": " + std::to_string(res.jobs) + ",\n";
        appendJsonIndent(out, 2);
        out += "\"wallSeconds\": ";
        appendJsonNumber(out, res.wallSeconds);
        out += ",\n";
        appendJsonIndent(out, 2);
        out +=
            "\"runsExecuted\": " + std::to_string(res.runsExecuted) +
            ",\n";
        appendJsonIndent(out, 2);
        out += "\"cacheHits\": " + std::to_string(res.cacheHits) +
               ",\n";
        appendJsonIndent(out, 2);
        out += "\"cacheMisses\": " + std::to_string(res.cacheMisses) +
               ",\n";
        appendJsonIndent(out, 2);
        out += "\"steals\": " + std::to_string(res.steals) + ",\n";
        appendJsonIndent(out, 2);
        out += "\"executorThreads\": " +
               std::to_string(res.executorThreads) + ",\n";
        appendJsonIndent(out, 2);
        out += "\"runsPerSec\": ";
        appendJsonNumber(out, res.runsPerSec);
        out += ",\n";
        appendJsonIndent(out, 2);
        out += "\"figureWallSeconds\": {";
        std::size_t entries =
            res.figures.size() + res.rawFigures.size();
        if (entries == 0) {
            out += "}\n";
        } else {
            out += '\n';
            std::size_t i = 0;
            auto one = [&](const std::string &name, double secs) {
                appendJsonIndent(out, 3);
                appendJsonString(out, name);
                out += ": ";
                appendJsonNumber(out, secs);
                if (++i < entries)
                    out += ',';
                out += '\n';
            };
            for (const auto &f : res.figures)
                one(f.spec->name, f.wallSeconds);
            for (const auto &f : res.rawFigures)
                one(f.name, f.wallSeconds);
            appendJsonIndent(out, 2);
            out += "}\n";
        }
        appendJsonIndent(out, 1);
        out += "},\n";
    }
    appendJsonIndent(out, 1);
    out += "\"figures\": [";
    std::size_t total = res.figures.size() + res.rawFigures.size();
    if (total == 0) {
        out += "]\n";
    } else {
        out += '\n';
        std::size_t i = 0;
        for (const auto &f : res.figures) {
            appendFigureJson(out, *f.spec, f.result, f.fingerprints, 2);
            if (++i < total)
                out += ',';
            out += '\n';
        }
        for (const auto &f : res.rawFigures) {
            appendJsonIndent(out, 2);
            out += "{\n";
            appendJsonIndent(out, 3);
            out += "\"name\": ";
            appendJsonString(out, f.name);
            out += ",\n";
            appendJsonIndent(out, 3);
            out += "\"title\": ";
            appendJsonString(out, f.title);
            out += ",\n";
            appendJsonIndent(out, 3);
            out += "\"anchor\": ";
            appendJsonString(out, f.anchor);
            out += ",\n";
            appendJsonIndent(out, 3);
            out += "\"volatile\": true,\n";
            appendJsonIndent(out, 3);
            out += "\"raw\": ";
            writeJsonValue(out, f.raw, 3);
            out += '\n';
            appendJsonIndent(out, 2);
            out += '}';
            if (++i < total)
                out += ',';
            out += '\n';
        }
        appendJsonIndent(out, 1);
        out += "]\n";
    }
    out += "}\n";
    os << out;
}

// --- standalone per-figure binaries -------------------------------------

int
standaloneMain(const char *specName, int argc, char **argv)
{
    const CampaignSpec *spec = findSpec(specName);
    if (!spec)
        MTP_FATAL("unknown campaign spec '", specName, "'");
    Options opts = parseArgs(argc, argv);
    if (!opts.quiet)
        banner(spec->title, spec->anchor, opts);

    Runner runner(opts);
    FigureResult result = spec->run(runner, opts);
    if (!opts.quiet)
        renderFigure(stdout, *spec, result);

    if (!opts.jsonOut.empty()) {
        std::string out;
        out += "{\n";
        appendJsonIndent(out, 1);
        out += "\"schema\": \"mtp-figure-v1\",\n";
        appendProvenance(out, collectProvenance(opts), 1);
        out += ",\n";
        appendJsonIndent(out, 1);
        out += "\"figure\":\n";
        appendFigureJson(out, *spec, result, runner.fingerprints(), 1);
        out += "\n}\n";
        std::FILE *f = std::fopen(opts.jsonOut.c_str(), "w");
        if (!f)
            MTP_FATAL("cannot open --json path '", opts.jsonOut, "'");
        std::fwrite(out.data(), 1, out.size(), f);
        std::fclose(f);
        if (!opts.quiet)
            std::printf("\nwrote %s\n", opts.jsonOut.c_str());
    }
    return 0;
}

} // namespace bench
} // namespace mtp
