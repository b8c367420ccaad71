#include "sim/export.hh"

#include <istream>
#include <string>
#include <string_view>
#include <type_traits>

#include "common/logging.hh"

namespace elfsim {

namespace {

/** forEachField visitor writing each ("name", value) as a JSON field. */
struct JsonFieldVisitor
{
    JsonWriter &w;

    void
    operator()(const char *name, const std::string &v) const
    {
        w.field(name, std::string_view(v));
    }
    void
    operator()(const char *name, double v) const
    {
        w.field(name, v);
    }
    void
    operator()(const char *name, std::uint64_t v) const
    {
        w.field(name, v);
    }
};

/** forEachField visitor appending each value as a CSV cell. */
struct CsvCellVisitor
{
    CsvWriter &w;

    void
    operator()(const char *, const std::string &v) const
    {
        w.cell(std::string_view(v));
    }
    void
    operator()(const char *, double v) const
    {
        w.cell(v);
    }
    void
    operator()(const char *, std::uint64_t v) const
    {
        w.cell(v);
    }
};

void
writeTiming(JsonWriter &w, const SweepTiming &t)
{
    w.beginObject();
    w.field("jobs", std::uint64_t(t.jobs));
    w.field("threads", std::uint64_t(t.threads));
    w.field("wall_seconds", t.wallSeconds);
    w.field("serial_seconds", t.serialSeconds);
    w.field("speedup", t.speedup());
    w.field("sim_cycles", t.simCycles);
    w.field("sim_insts", t.simInsts);
    w.field("sim_cycles_per_second", t.cyclesPerSecond());
    w.endObject();
}

void
writeTraceStats(JsonWriter &w, const TraceStats &t)
{
    w.beginObject();
    w.field("compiles", t.compiles);
    w.field("cache_hits", t.cacheHits);
    w.field("cache_misses", t.cacheMisses);
    w.field("bytes_mapped", t.bytesMapped);
    w.field("compile_seconds", t.compileSeconds);
    w.endObject();
}

} // namespace

void
writeRunResult(JsonWriter &w, const RunResult &r)
{
    w.beginObject();
    r.forEachField(JsonFieldVisitor{w});
    w.field("status", jobStatusName(r.status));
    w.field("interval_insts", r.intervalInsts);
    w.key("timeline");
    w.beginArray();
    for (const IntervalSample &s : r.timeline) {
        w.beginObject();
        s.forEachField(JsonFieldVisitor{w});
        w.endObject();
    }
    w.endArray();
    // The extrapolation block exists only for sampled runs, so full
    // runs keep the exact schema they have always had.
    if (r.sampled) {
        w.key("sampling");
        w.beginObject();
        r.sampling.forEachField(JsonFieldVisitor{w});
        w.endObject();
    }
    w.endObject();
}

namespace {

/** visitFields visitor assigning each named member from a parsed
 *  JSON object (the inverse of JsonFieldVisitor). */
struct JsonFieldLoader
{
    const json::Value &obj;

    void
    operator()(const char *name, std::string &v) const
    {
        v = obj.at(name).asString();
    }
    void
    operator()(const char *name, double &v) const
    {
        v = obj.at(name).asDouble();
    }
    void
    operator()(const char *name, std::uint64_t &v) const
    {
        v = obj.at(name).asU64();
    }
};

} // namespace

RunResult
runResultFromJson(const json::Value &obj)
{
    RunResult r;
    RunResult::visitFields(r, JsonFieldLoader{obj});
    if (!parseJobStatus(obj.at("status").asString(), r.status))
        throw ParseError(
            errorf("unknown job status '%s'",
                   obj.at("status").asString().c_str()));
    r.intervalInsts = obj.at("interval_insts").asU64();
    const json::Value &timeline = obj.at("timeline");
    r.timeline.resize(timeline.size());
    for (std::size_t i = 0; i < timeline.size(); ++i)
        IntervalSample::visitFields(r.timeline[i],
                                    JsonFieldLoader{timeline[i]});
    if (const json::Value *sampling = obj.find("sampling")) {
        r.sampled = true;
        SamplingInfo::visitFields(r.sampling,
                                  JsonFieldLoader{*sampling});
    }
    return r;
}

void
writeSweepJson(std::ostream &os, const std::vector<RunResult> &results,
               const SweepTiming *timing, const TraceStats *trace)
{
    JsonWriter w(os);
    w.beginObject();
    w.field("schema", "elfsim-results-v2");
    if (timing) {
        w.key("timing");
        writeTiming(w, *timing);
    }
    if (trace) {
        w.key("trace");
        writeTraceStats(w, *trace);
    }
    w.key("results");
    w.beginArray();
    for (const RunResult &r : results)
        writeRunResult(w, r);
    w.endArray();
    w.endObject();
}

ResultsStreamWriter::ResultsStreamWriter(std::ostream &os) : w(os)
{
    w.beginObject();
    w.field("schema", "elfsim-results-v2");
    w.key("results");
    w.beginArray();
}

void
ResultsStreamWriter::add(const RunResult &r)
{
    ELFSIM_ASSERT(!done, "add() on a finished results stream");
    writeRunResult(w, r);
}

void
ResultsStreamWriter::finish()
{
    if (done)
        return;
    done = true;
    w.endArray();
    w.endObject();
}

void
writeResultsJson(std::ostream &os, const std::vector<RunResult> &results)
{
    ResultsStreamWriter s(os);
    for (const RunResult &r : results)
        s.add(r);
    s.finish();
}

void
writeResultsCsv(std::ostream &os, const std::vector<RunResult> &results)
{
    CsvWriter w(os);
    RunResult{}.forEachField(
        [&w](const char *name, const auto &) { w.cell(name); });
    w.cell("status").cell("interval_insts").cell("timeline_samples");
    w.endRow();
    for (const RunResult &r : results) {
        r.forEachField(CsvCellVisitor{w});
        w.cell(jobStatusName(r.status))
            .cell(r.intervalInsts)
            .cell(std::uint64_t(r.timeline.size()));
        w.endRow();
    }
}

void
writeManifestLine(std::ostream &os, const ManifestEntry &e)
{
    JsonWriter w(os, /*pretty=*/false);
    w.beginObject();
    w.field("manifest", "elfsim-manifest-v1");
    w.field("index", std::uint64_t(e.index));
    w.field("key", std::string_view(e.key));
    w.field("status", jobStatusName(e.result.status));
    w.key("result");
    writeRunResult(w, e.result);
    w.endObject();
    os << '\n';
}

ManifestEntry
manifestEntryFromJson(const json::Value &doc)
{
    if (doc.at("manifest").asString() != "elfsim-manifest-v1")
        throw ParseError("unknown manifest schema");
    ManifestEntry e;
    e.index = std::size_t(doc.at("index").asU64());
    e.key = doc.at("key").asString();
    e.result = runResultFromJson(doc.at("result"));
    return e;
}

void
ManifestReplay::add(ManifestEntry e)
{
    const auto [it, fresh] = at.emplace(e.index, entries.size());
    if (fresh)
        entries.push_back(std::move(e));
    else
        entries[it->second] = std::move(e);
}

std::vector<ManifestEntry>
readManifest(std::istream &is)
{
    ManifestReplay replay;
    std::string line;
    std::size_t lineno = 0;
    while (std::getline(is, line)) {
        ++lineno;
        if (line.empty())
            continue;
        try {
            replay.add(manifestEntryFromJson(json::parse(line)));
        } catch (const SimError &err) {
            // A crash mid-append leaves a truncated last line; the
            // cell it journaled simply re-runs.
            ELFSIM_WARN("manifest line %zu skipped: %s", lineno,
                        err.what());
        }
    }
    return std::move(replay.entries);
}

void
writeTimelineCsv(std::ostream &os, const std::vector<RunResult> &results)
{
    CsvWriter w(os);
    w.cell("workload").cell("variant");
    IntervalSample{}.forEachField(
        [&w](const char *name, const auto &) { w.cell(name); });
    w.endRow();
    for (const RunResult &r : results) {
        for (const IntervalSample &s : r.timeline) {
            w.cell(std::string_view(r.workload))
                .cell(std::string_view(r.variant));
            s.forEachField(CsvCellVisitor{w});
            w.endRow();
        }
    }
}

} // namespace elfsim
