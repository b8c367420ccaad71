/**
 * @file
 * Benchmark program: links the elfsim library and times calls into its
 * public functions from the outside — expandSweep, TraceCache::acquire,
 * Core::Core / Core::run, SweepRunner::run, SweepCoordinator::run, the
 * in-process SweepService fleet and writeResultsJson. No simulator code
 * is instrumented; every span is recorded here, around those calls.
 *
 * perfbench/run.py generates the sweep spec from the workload name and
 * seed, starts this program in a fresh process per run, and turns the
 * raw samples it writes into the named metrics (see perfbench/README.md).
 *
 *   elfsim_perfbench --mode detailed|sampled|fleet --spec FILE
 *                    --seconds S --setup-reps N --trace 0|1
 *                    --work DIR --out FILE [--trace-file FILE]
 *
 * Modes:
 *   detailed  SweepRunner (spec "jobs" threads) over a detailed grid.
 *   sampled   one sampled grid run twice per pass: cold (fresh
 *             checkpoint directory, checkpoints written) and, after
 *             TraceCache::clearMemory(), a re-run that restores them.
 *   fleet     SweepCoordinator feeding two in-process SweepService
 *             workers (worker mode, 1 sweep thread each) over loopback,
 *             checked byte for byte against an in-process SweepRunner.
 *
 * Untraced (--trace 0): repeat (--setup-reps set-ups back to back,
 * timed pass on the last one) for up to --seconds (at least once). A
 * set-up that follows a pass is not a sample. Set-ups and passes are
 * reported as medians.
 * Traced (--trace 1): set up once, then four passes — untraced, traced,
 * traced, untraced (the mean difference is the tracing overhead; the
 * per-layer numbers come from the first traced pass) — then every
 * detailed cell is driven directly through TraceCache::acquire ->
 * Core::Core -> Core::run(warmup) -> Core::run(measure), as
 * runSimulation does, and its simulated cycles are checked against the
 * first untraced pass. Spans go to --trace-file as Chrome trace-event
 * JSON.
 *
 * Exit status: 0 when the run completed (correctness verdicts are in
 * the output document), 2 on a usage error, 1 on any other error.
 */

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hh"
#include "common/export.hh"
#include "common/hash.hh"
#include "common/random.hh"
#include "dist/coordinator.hh"
#include "service/daemon.hh"
#include "sim/core.hh"
#include "sim/export.hh"
#include "sim/runner.hh"
#include "sim/sweep.hh"
#include "sim/sweep_spec.hh"
#include "sim/warm_kernel.hh"
#include "workload/checkpoint_store.hh"
#include "workload/trace_cache.hh"

#ifndef ELFSIM_PERFBENCH_BUILD_TYPE
#define ELFSIM_PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef ELFSIM_PERFBENCH_COMPILER
#define ELFSIM_PERFBENCH_COMPILER "unknown"
#endif

using namespace elfsim;
namespace fs = std::filesystem;

namespace {

using Clock = std::chrono::steady_clock;

double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

struct UsageError : std::runtime_error
{
    using std::runtime_error::runtime_error;
};

// ------------------------------------------------------------- tracing

/**
 * In-memory span recorder, written out once as Chrome trace-event JSON
 * (chrome://tracing and Perfetto open it). Disabled recorders ignore
 * every call, so the untraced path never touches it. Each span carries
 * an id and its parent's id; thread ids separate concurrent lanes
 * (fleet workers) in the viewer.
 */
class Tracer
{
  public:
    explicit Tracer(bool on) : on_(on), origin_(Clock::now()) {}

    bool on() const { return on_; }

    /** Open a span on lane @a tid under the current parent. */
    std::uint64_t
    begin(const std::string &name, std::uint64_t tid = 0)
    {
        if (!on_)
            return 0;
        Event e;
        e.name = name;
        e.id = ++nextId_;
        e.parent = stack_.empty() ? 0 : stack_.back();
        e.tid = tid;
        e.start = Clock::now();
        events_.push_back(std::move(e));
        stack_.push_back(events_.back().id);
        return events_.back().id;
    }

    void
    end(std::uint64_t id)
    {
        if (!on_ || id == 0)
            return;
        for (auto it = events_.rbegin(); it != events_.rend(); ++it) {
            if (it->id == id) {
                it->stop = Clock::now();
                break;
            }
        }
        if (!stack_.empty() && stack_.back() == id)
            stack_.pop_back();
    }

    /** Record an already-measured child span of the current parent. */
    void
    complete(const std::string &name, Clock::time_point start,
             Clock::time_point stop, std::uint64_t tid,
             std::string args = "")
    {
        if (!on_)
            return;
        Event e;
        e.name = name;
        e.id = ++nextId_;
        e.parent = stack_.empty() ? 0 : stack_.back();
        e.tid = tid;
        e.start = start;
        e.stop = stop;
        e.args = std::move(args);
        events_.push_back(std::move(e));
    }

    std::size_t size() const { return events_.size(); }

    void
    write(const std::string &path) const
    {
        std::ofstream os(path, std::ios::trunc);
        if (!os)
            throw IoError("cannot write trace file '" + path + "'");
        os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
        bool first = true;
        for (const Event &e : events_) {
            const double ts = micros(e.start);
            os << (first ? "" : ",\n") << "{\"name\":\"" << e.name
               << "\",\"cat\":\"perfbench\",\"ph\":\"X\",\"ts\":"
               << formatDouble(ts)
               << ",\"dur\":" << formatDouble(micros(e.stop) - ts);
            os << ",\"pid\":1,\"tid\":" << e.tid << ",\"args\":{\"id\":"
               << e.id << ",\"parent\":" << e.parent
               << (e.args.empty() ? "" : ",") << e.args << "}}";
            first = false;
        }
        os << "\n]}\n";
        if (!os.flush())
            throw IoError("short write to trace file '" + path + "'");
    }

  private:
    struct Event
    {
        std::string name;
        std::uint64_t id = 0;
        std::uint64_t parent = 0;
        std::uint64_t tid = 0;
        Clock::time_point start;
        Clock::time_point stop;
        std::string args; ///< extra JSON members, already encoded
    };

    double
    micros(Clock::time_point t) const
    {
        return std::chrono::duration<double, std::micro>(t - origin_)
            .count();
    }

    bool on_;
    Clock::time_point origin_;
    std::uint64_t nextId_ = 0;
    std::vector<std::uint64_t> stack_;
    std::vector<Event> events_;
};

/** Scoped span: begin on construction, end on destruction. */
class Span
{
  public:
    Span(Tracer &t, const std::string &name, std::uint64_t tid = 0)
        : tracer_(t), id_(t.begin(name, tid))
    {
    }
    ~Span() { tracer_.end(id_); }
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    Tracer &tracer_;
    std::uint64_t id_;
};

// --------------------------------------------------------------- options

enum class Mode { Detailed, Sampled, Fleet };

struct Options
{
    Mode mode = Mode::Detailed;
    std::string specPath;
    double seconds = 10;
    unsigned setupReps = 3;
    bool trace = false;
    std::string workDir;
    std::string outPath;
    std::string traceFile;
};

Options
parseArgs(int argc, char **argv)
{
    Options o;
    auto need = [&](int &i) -> std::string {
        if (i + 1 >= argc)
            throw UsageError(std::string("missing value for ") + argv[i]);
        return argv[++i];
    };
    auto number = [&](int &i) -> double {
        const std::string v = need(i);
        char *end = nullptr;
        const double x = std::strtod(v.c_str(), &end);
        if (v.empty() || *end != '\0')
            throw UsageError("bad number '" + v + "'");
        return x;
    };
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (a == "--mode") {
            const std::string m = need(i);
            if (m == "detailed")
                o.mode = Mode::Detailed;
            else if (m == "sampled")
                o.mode = Mode::Sampled;
            else if (m == "fleet")
                o.mode = Mode::Fleet;
            else
                throw UsageError("unknown mode '" + m + "'");
        } else if (a == "--spec") {
            o.specPath = need(i);
        } else if (a == "--seconds") {
            o.seconds = number(i);
        } else if (a == "--setup-reps") {
            const double reps = number(i);
            if (reps < 1 || reps > 1000 || reps != double(unsigned(reps)))
                throw UsageError("--setup-reps must be 1..1000");
            o.setupReps = unsigned(reps);
        } else if (a == "--trace") {
            o.trace = need(i) != "0";
        } else if (a == "--work") {
            o.workDir = need(i);
        } else if (a == "--out") {
            o.outPath = need(i);
        } else if (a == "--trace-file") {
            o.traceFile = need(i);
        } else {
            throw UsageError("unknown argument '" + a + "'");
        }
    }
    if (o.specPath.empty() || o.workDir.empty() || o.outPath.empty())
        throw UsageError("--spec, --work and --out are required");
    if (o.trace && o.traceFile.empty())
        throw UsageError("--trace 1 needs --trace-file");
    if (!(o.seconds > 0))
        throw UsageError("--seconds must be positive");
    return o;
}

// ----------------------------------------------------------- set-up

/** TraceCache activity before the last memo clear (clearMemory()
 *  zeroes the cache's own counters). */
TraceStats clearedTraceActivity;

/** Trace activity of the whole process so far. */
TraceStats
totalTraceActivity()
{
    TraceStats s = TraceCache::instance().stats();
    s.compiles += clearedTraceActivity.compiles;
    s.cacheHits += clearedTraceActivity.cacheHits;
    s.cacheMisses += clearedTraceActivity.cacheMisses;
    s.bytesMapped += clearedTraceActivity.bytesMapped;
    s.compileSeconds += clearedTraceActivity.compileSeconds;
    return s;
}

/** Drop the in-memory trace memo, keeping its activity counters. */
void
clearTraceMemo()
{
    clearedTraceActivity = totalTraceActivity();
    TraceCache::instance().clearMemory();
}

/** Instruction count the sweep engine compiles for cell @a job. */
InstCount
traceBudget(const SweepJob &job)
{
    const InstCount total = job.opts.warmupInsts + job.opts.measureInsts;
    return job.opts.sampled() ? std::min(total, maxSampledTraceInsts)
                              : total;
}

/** Distinct (program, budget) pairs in submission order. */
std::vector<std::pair<const Program *, InstCount>>
distinctPrograms(const ExpandedSweep &ex)
{
    std::vector<std::pair<const Program *, InstCount>> out;
    std::set<std::pair<const Program *, InstCount>> seen;
    for (const SweepJob &job : ex.jobs) {
        const auto key = std::make_pair(job.program, traceBudget(job));
        if (seen.insert(key).second)
            out.push_back(key);
    }
    return out;
}

/** Everything the timed phase starts from. Destroying it stops the
 *  fleet's workers (~SweepService). */
struct Setup
{
    ExpandedSweep ex;
    std::vector<std::unique_ptr<service::SweepService>> workers;
    double seconds = 0;
    double expandSeconds = 0;
    double acquireSeconds = 0;
    std::uint64_t traceBytes = 0;
    std::uint64_t tracedInsts = 0;
};

/** Acquire the compiled trace of every distinct program once. */
void
acquireTraces(const ExpandedSweep &ex, Tracer &tracer, Setup *into)
{
    for (const auto &[prog, budget] : distinctPrograms(ex)) {
        Span s(tracer, "workload.trace_acquire");
        auto trace = TraceCache::instance().acquire(*prog, budget);
        if (into && trace) {
            into->traceBytes += trace->payloadBytes();
            into->tracedInsts += trace->size();
        }
    }
}

/**
 * Spec expansion and program build, the first trace acquisition of
 * every distinct program, and (fleet) worker start-up. The memo is
 * cleared first, so every repetition compiles like a fresh process.
 */
std::unique_ptr<Setup>
setUp(const Options &o, const SweepSpec &spec, Tracer &tracer)
{
    clearTraceMemo();
    auto st = std::make_unique<Setup>();
    const auto t0 = Clock::now();
    {
        Span s(tracer, "workload.expand");
        st->ex = expandSweep(spec);
    }
    const auto t1 = Clock::now();
    acquireTraces(st->ex, tracer, st.get());
    const auto t2 = Clock::now();
    if (o.mode == Mode::Fleet) {
        Span s(tracer, "fleet.start");
        service::ServiceConfig wcfg;
        wcfg.worker = true;
        wcfg.jobs = 1;
        for (int w = 0; w < 2; ++w) {
            st->workers.push_back(
                std::make_unique<service::SweepService>(wcfg));
            st->workers.back()->start();
        }
    }
    const auto t3 = Clock::now();
    st->expandSeconds = secondsBetween(t0, t1);
    st->acquireSeconds = secondsBetween(t1, t2);
    st->seconds = secondsBetween(t0, t3);
    return st;
}

// ----------------------------------------------------------- passes

/** Serialize one result the way the results document does. */
std::string
cellBytes(const RunResult &r)
{
    std::ostringstream os;
    JsonWriter w(os, false);
    writeRunResult(w, r);
    return os.str();
}

/**
 * Serialize a sampled result without the fields that legitimately
 * differ between a cold run and its checkpoint re-run: checkpoint
 * hit/miss/save counts and the functional-warming work split (a
 * restored window skips the fast-forward it would have warmed).
 */
std::string
sampledCellBytes(const RunResult &result)
{
    RunResult r = result;
    r.sampling.ckptHits = r.sampling.ckptMisses = r.sampling.ckptSaves = 0;
    r.sampling.warmKernelInsts = r.sampling.warmScalarInsts = 0;
    r.sampling.warmBranchEvents = r.sampling.warmLinesTouched = 0;
    r.sampling.warmFfInsts = 0;
    return cellBytes(r);
}

struct Pass
{
    double wallSeconds = 0;
    double rerunSeconds = 0;      ///< sampled only
    double rerunAcquireSeconds = 0;
    double exportSeconds = 0;
    std::uint64_t exportBytes = 0;
    std::vector<double> cellSeconds;
    std::vector<RunResult> results;
    std::vector<RunResult> rerunResults; ///< sampled only
    std::string bytes;                   ///< the results document
    CkptStats ckpt;                      ///< sampled only (cold + rerun)
    CkptStats rerunCkpt;                 ///< sampled only (rerun)
    WarmStats warm;                      ///< cold pass only
    dist::CoordStats coord;              ///< fleet only
};

/** writeResultsJson to a file in the work directory (last byte out). */
void
exportResults(const Options &o, Pass &p, Tracer &tracer)
{
    Span s(tracer, "export.write");
    const auto t0 = Clock::now();
    std::ostringstream os;
    writeResultsJson(os, p.results);
    p.bytes = os.str();
    const std::string path = o.workDir + "/results.json";
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    f << p.bytes;
    if (!f.flush())
        throw IoError("short write to '" + path + "'");
    p.exportBytes = p.bytes.size();
    p.exportSeconds = secondsBetween(t0, Clock::now());
}

/**
 * Run @a jobs through a SweepRunner; with tracing, one child "cell"
 * span per cell is rebuilt from perJobSeconds and the completion times
 * the cell observer saw.
 */
std::vector<RunResult>
runSweep(const SweepSpec &spec, const std::vector<SweepJob> &jobs,
         unsigned threads, Tracer &tracer, std::vector<double> &cellSecs)
{
    SweepRunner runner(threads);
    runner.setBaseSeed(spec.baseSeed);
    SweepPolicy pol = spec.policy;
    pol.keepGoing = true;
    runner.setPolicy(pol);
    std::vector<Clock::time_point> doneAt(jobs.size());
    if (tracer.on())
        runner.setCellObserver([&doneAt](std::size_t i, const RunResult &)
                               { doneAt[i] = Clock::now(); });
    Span s(tracer, "sweep.run");
    std::vector<RunResult> results = runner.run(jobs);
    cellSecs = runner.perJobSeconds();
    if (!tracer.on())
        return results;

    // Cells of concurrent sweep threads overlap in time; give each span
    // the first lane that is free at its start, in start order.
    std::vector<std::pair<Clock::time_point, std::size_t>> starts;
    for (std::size_t i = 0; i < jobs.size(); ++i)
        starts.emplace_back(
            doneAt[i] - std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(cellSecs[i])),
            i);
    std::sort(starts.begin(), starts.end());
    std::vector<Clock::time_point> laneFree;
    for (const auto &[start, i] : starts) {
        std::size_t lane = 0;
        while (lane < laneFree.size() && laneFree[lane] > start)
            ++lane;
        if (lane == laneFree.size())
            laneFree.push_back(start);
        laneFree[lane] = doneAt[i];
        tracer.complete("cell", start, doneAt[i], lane,
                        "\"index\":" + std::to_string(i) +
                            ",\"workload\":\"" + results[i].workload +
                            "\",\"variant\":\"" + results[i].variant +
                            "\"");
    }
    return results;
}

unsigned
sweepThreads(const SweepSpec &spec)
{
    return spec.jobs ? spec.jobs : 1;
}

Pass
detailedPass(const Options &o, const SweepSpec &spec, const Setup &st,
             Tracer &tracer)
{
    Pass p;
    const auto t0 = Clock::now();
    p.results =
        runSweep(spec, st.ex.jobs, sweepThreads(spec), tracer, p.cellSeconds);
    exportResults(o, p, tracer);
    p.wallSeconds = secondsBetween(t0, Clock::now());
    return p;
}

Pass
sampledPass(const Options &o, const SweepSpec &spec, const Setup &st,
            Tracer &tracer, unsigned passIndex)
{
    Pass p;
    const std::string ckptDir =
        o.workDir + "/ckpt-" + std::to_string(passIndex);
    fs::remove_all(ckptDir);
    fs::create_directories(ckptDir);
    CheckpointStore::instance().setDirectory(ckptDir);
    const CkptStats ckpt0 = CheckpointStore::instance().stats();
    const WarmStats warm0 = processWarmStats();

    // Cold: the trace is memoized by this pass's set-up, the
    // checkpoint directory is empty.
    const auto t0 = Clock::now();
    p.results =
        runSweep(spec, st.ex.jobs, sweepThreads(spec), tracer, p.cellSeconds);
    exportResults(o, p, tracer);
    p.wallSeconds = secondsBetween(t0, Clock::now());
    p.warm = processWarmStats().delta(warm0);

    // Re-run: drop the in-memory trace memo, acquire the trace again
    // (a fresh process would), and restore the saved checkpoints.
    clearTraceMemo();
    const CkptStats ckptCold = CheckpointStore::instance().stats();
    const auto r0 = Clock::now();
    {
        Span s(tracer, "ckpt.rerun");
        acquireTraces(st.ex, tracer, nullptr);
        p.rerunAcquireSeconds = secondsBetween(r0, Clock::now());
        std::vector<double> rerunCells;
        p.rerunResults = runSweep(spec, st.ex.jobs, sweepThreads(spec),
                                  tracer, rerunCells);
    }
    p.rerunSeconds = secondsBetween(r0, Clock::now());
    p.ckpt = CheckpointStore::instance().stats().delta(ckpt0);
    p.rerunCkpt = CheckpointStore::instance().stats().delta(ckptCold);
    CheckpointStore::instance().setDirectory("");
    fs::remove_all(ckptDir);
    return p;
}

Pass
fleetPass(const Options &o, const SweepSpec &spec, const Setup &st,
          Tracer &tracer, unsigned passIndex)
{
    Pass p;
    dist::CoordinatorConfig cfg;
    for (const auto &w : st.workers)
        cfg.workers.push_back({"127.0.0.1", w->port()});
    cfg.ledgerPath =
        o.workDir + "/ledger-" + std::to_string(passIndex) + ".jsonl";
    // Default chunking, as elfsim_coord runs it. No in-process fallback:
    // a cell the fleet did not run must show up as a failure, not as
    // an in-process answer with the same bytes.
    cfg.localFallback = false;
    dist::SweepCoordinator coord(cfg);

    // A worker's lease ends when it takes its next one (or the run
    // ends). The workers report no per-cell times, so each lease gives
    // one sample: its seconds per cell. A lease on cells another
    // worker already holds is a hedge and gives none.
    struct Lease
    {
        Clock::time_point start;
        std::vector<std::size_t> cells;
        bool hedge = false;
    };
    std::mutex mtx;
    std::map<std::string, Lease> open;
    std::map<std::string, std::uint64_t> lane;
    std::set<std::size_t> leased;
    auto close = [&](const std::string &id, Clock::time_point now) {
        auto it = open.find(id);
        if (it == open.end())
            return;
        const Lease &l = it->second;
        const double secs = secondsBetween(l.start, now);
        if (!l.hedge)
            p.cellSeconds.push_back(secs / double(l.cells.size()));
        tracer.complete(l.hedge ? "hedge" : "lease", l.start, now, lane[id],
                        "\"index\":" + std::to_string(l.cells.front()) +
                            ",\"cells\":" +
                            std::to_string(l.cells.size()) +
                            ",\"worker\":\"" + id + "\"");
        open.erase(it);
    };
    coord.setLeaseObserver(
        [&](const std::vector<std::size_t> &chunk, const std::string &id) {
            std::lock_guard<std::mutex> lk(mtx);
            const auto now = Clock::now();
            if (!lane.count(id)) {
                const std::uint64_t next = lane.size() + 1;
                lane[id] = next;
            }
            close(id, now);
            Lease l{now, chunk, leased.count(chunk.front()) != 0};
            leased.insert(chunk.begin(), chunk.end());
            open[id] = std::move(l);
        });

    const auto t0 = Clock::now();
    {
        Span s(tracer, "coord.run");
        p.results = coord.run(spec);
        const auto now = Clock::now();
        std::lock_guard<std::mutex> lk(mtx);
        while (!open.empty())
            close(open.begin()->first, now);
    }
    exportResults(o, p, tracer);
    p.wallSeconds = secondsBetween(t0, Clock::now());
    p.coord = coord.stats();
    std::remove(cfg.ledgerPath.c_str());
    return p;
}

Pass
runPass(const Options &o, const SweepSpec &spec, const Setup &st,
        Tracer &tracer, unsigned passIndex)
{
    switch (o.mode) {
    case Mode::Sampled:
        return sampledPass(o, spec, st, tracer, passIndex);
    case Mode::Fleet:
        return fleetPass(o, spec, st, tracer, passIndex);
    case Mode::Detailed:
        break;
    }
    return detailedPass(o, spec, st, tracer);
}

// ------------------------------------------------------------ checks

/** Indices of cells whose serialized results differ between @a want
 *  and @a got (a missing cell differs). */
std::set<std::size_t>
differingCells(const std::vector<RunResult> &want,
               const std::vector<RunResult> &got,
               std::string (*bytes)(const RunResult &))
{
    std::set<std::size_t> out;
    for (std::size_t i = 0; i < want.size(); ++i)
        if (i >= got.size() || bytes(got[i]) != bytes(want[i]))
            out.insert(i);
    return out;
}

/** In-process SweepRunner answer the fleet must reproduce. */
std::string
referenceBytes(const SweepSpec &spec, const Setup &st, Tracer &tracer,
               std::vector<RunResult> &results)
{
    std::vector<double> secs;
    results = runSweep(spec, st.ex.jobs, 2, tracer, secs);
    std::ostringstream os;
    writeResultsJson(os, results);
    return os.str();
}

// ------------------------------------------------------ direct drive

/** Per-layer counters of cells driven directly through Core. */
struct DriveTotals
{
    double coreInitSeconds = 0;
    double warmupSeconds = 0;
    double measureSeconds = 0;
    std::uint64_t warmupInsts = 0;
    std::uint64_t measureInsts = 0;
    std::uint64_t measureCycles = 0;
    std::uint64_t totalCycles = 0;
    std::uint64_t committed = 0;
    std::uint64_t robFullCycles = 0;
    std::uint64_t coupledCycles = 0;
    std::uint64_t decoupledCycles = 0;
    std::uint64_t switches = 0;
    std::size_t cells = 0;
};

/**
 * Drive every detailed cell exactly as runSimulation does, timing each
 * step, and check its measured cycles against @a untraced.
 */
DriveTotals
driveCells(const SweepSpec &spec, const Setup &st,
           const std::vector<RunResult> &untraced, Tracer &tracer,
           std::set<std::size_t> &bad)
{
    DriveTotals t;
    Span all(tracer, "cells.drive");
    for (std::size_t i = 0; i < st.ex.jobs.size(); ++i) {
        const SweepJob &job = st.ex.jobs[i];
        if (job.opts.sampled())
            continue;
        SimConfig cfg = job.cfg;
        if (spec.baseSeed)
            cfg.rngSeed = mix64(spec.baseSeed, i + 1);
        Span cell(tracer, "cell.drive");
        auto trace = TraceCache::instance().acquire(
            *job.program, job.opts.warmupInsts + job.opts.measureInsts);
        const auto t0 = Clock::now();
        std::unique_ptr<Core> core;
        {
            Span s(tracer, "sim.core_init");
            core = std::make_unique<Core>(cfg, *job.program, trace);
        }
        const auto t1 = Clock::now();
        {
            Span s(tracer, "sim.warmup");
            core->run(job.opts.warmupInsts);
        }
        const auto t2 = Clock::now();
        const StatSnapshot warm = StatSnapshot::capture(*core);
        {
            Span s(tracer, "sim.measure");
            core->run(job.opts.measureInsts);
        }
        const auto t3 = Clock::now();
        const StatSnapshot d = StatSnapshot::capture(*core).delta(warm);

        t.coreInitSeconds += secondsBetween(t0, t1);
        t.warmupSeconds += secondsBetween(t1, t2);
        t.measureSeconds += secondsBetween(t2, t3);
        t.warmupInsts += warm.insts;
        t.measureInsts += d.insts;
        t.measureCycles += d.cycles;
        t.totalCycles += core->cycles();
        t.committed += core->committed();
        t.robFullCycles += core->backend().stats().robFullCycles;
        t.coupledCycles += core->elf().stats().coupledCycles;
        t.decoupledCycles += core->elf().stats().decoupledCycles;
        t.switches += core->elf().stats().switches;
        ++t.cells;
        if (i >= untraced.size() || untraced[i].cycles != d.cycles ||
            untraced[i].insts != d.insts)
            bad.insert(i);
    }
    return t;
}

// ------------------------------------------------------------ output

double
quantile(std::vector<double> xs, double q)
{
    if (xs.empty())
        return 0;
    std::sort(xs.begin(), xs.end());
    const double pos = q * double(xs.size() - 1);
    const std::size_t lo = std::size_t(pos);
    const std::size_t hi = std::min(lo + 1, xs.size() - 1);
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - double(lo));
}

void
writeDoubles(JsonWriter &w, const std::string &k,
             const std::vector<double> &xs)
{
    w.key(k).beginArray();
    for (double x : xs)
        w.value(x);
    w.endArray();
}

void
writeCells(JsonWriter &w, const std::vector<RunResult> &results,
           const std::vector<SweepJob> &jobs)
{
    w.key("cells").beginArray();
    for (std::size_t i = 0; i < results.size(); ++i) {
        const RunResult &r = results[i];
        const SweepJob &job = jobs[i];
        w.beginObject();
        w.field("workload", r.workload);
        w.field("variant", r.variant);
        w.field("ok", r.ok());
        w.field("error", r.error);
        w.field("cycles", std::uint64_t(r.cycles));
        w.field("insts", std::uint64_t(r.insts));
        w.field("ipc", r.ipc);
        w.field("covered_insts",
                std::uint64_t(r.sampled ? r.sampling.totalInsts
                                        : job.opts.warmupInsts +
                                              job.opts.measureInsts));
        w.field("est_total_cycles",
                r.sampled ? r.sampling.estTotalCycles : double(r.cycles));
        w.endObject();
    }
    w.endArray();
}

/** Per-layer metrics of a traced run (names as in BENCHMARK.json). */
void
writeLayers(JsonWriter &w, const Setup &st,
            const Pass &traced, double overheadSeconds,
            const DriveTotals &drive, const TraceStats &traceAll,
            const service::SweepService::Counters &svc)
{
    const std::vector<RunResult> &rs = traced.results;
    double insts = 0, detailedInsts = 0, condMisses = 0, branchMisses = 0;
    double l1dMisses = 0, hitL0 = 0, hitL1 = 0, hitL2 = 0, l0iMiss = 0;
    std::uint64_t memOrder = 0, resteers = 0, wrongPath = 0, periods = 0;
    std::uint64_t divFlushes = 0, execFlushes = 0, prefetches = 0;
    std::uint64_t failed = 0;
    for (std::size_t i = 0; i < rs.size(); ++i) {
        const RunResult &r = rs[i];
        const SweepJob &job = st.ex.jobs[i];
        failed += r.ok() ? 0 : 1;
        insts += double(r.insts);
        detailedInsts += r.sampled ? double(r.sampling.windows *
                                            (r.sampling.warmupInsts +
                                             r.sampling.lengthInsts))
                                   : double(job.opts.warmupInsts +
                                            job.opts.measureInsts);
        condMisses += r.condMpki * double(r.insts) / 1000.0;
        branchMisses += r.branchMpki * double(r.insts) / 1000.0;
        l1dMisses += r.l1dMpki * double(r.insts) / 1000.0;
        hitL0 += r.btbHitL0;
        hitL1 += r.btbHitL1;
        hitL2 += r.btbHitL2;
        l0iMiss += r.l0iMissRate;
        memOrder += r.memOrderFlushes;
        resteers += r.decodeResteers;
        wrongPath += r.wrongPathInsts;
        periods += r.coupledPeriods;
        divFlushes += r.divergenceFlushes;
        execFlushes += r.execFlushes;
        prefetches += r.instPrefetches;
    }
    const double n = rs.empty() ? 1.0 : double(rs.size());
    auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
    const double mb = 1024.0 * 1024.0;

    w.key("layers").beginObject();
    // workload: program build and trace compilation (set-up).
    w.field("workload.build_s", st.expandSeconds);
    w.field("workload.trace_compile_s", traceAll.compileSeconds);
    w.field("workload.trace_mb", double(st.traceBytes) / mb);
    w.field("workload.trace_compiles", traceAll.compiles);
    w.field("workload.trace_hits", traceAll.cacheHits);
    w.field("workload.trace_mips",
            ratio(double(st.tracedInsts) / 1e6, st.acquireSeconds));

    // sim: directly driven detailed cells.
    w.field("sim.core_init_s", drive.coreInitSeconds);
    w.field("sim.warmup_s", drive.warmupSeconds);
    w.field("sim.measure_s", drive.measureSeconds);
    w.field("sim.ns_per_cycle",
            ratio(drive.measureSeconds * 1e9, double(drive.measureCycles)));
    w.field("sim.ns_per_inst",
            ratio((drive.warmupSeconds + drive.measureSeconds) * 1e9,
                  double(drive.warmupInsts + drive.measureInsts)));
    w.field("sim.cpi", drive.cells
                           ? ratio(double(drive.measureCycles),
                                   double(drive.measureInsts))
                           : ratio(1.0, rs.empty() ? 0.0 : rs[0].ipc));

    // sim: sampled fast-forward (cold pass).
    std::uint64_t kernelInsts = 0, scalarInsts = 0, windows = 0;
    double relErr = 0, totalInsts = 0;
    for (const RunResult &r : rs) {
        kernelInsts += r.sampling.warmKernelInsts;
        scalarInsts += r.sampling.warmScalarInsts;
        windows += r.sampling.windows;
        totalInsts += double(r.sampling.totalInsts);
        relErr = std::max(relErr, r.sampling.ipcRelErr95);
    }
    w.field("sim.ff_kernel_insts", kernelInsts);
    w.field("sim.ff_scalar_insts", scalarInsts);
    w.field("sim.ff_kernel_s", traced.warm.kernelSeconds);
    w.field("sim.ff_kernel_mips",
            ratio(double(traced.warm.kernelInsts) / 1e6,
                  traced.warm.kernelSeconds));
    w.field("sim.detailed_share",
            totalInsts > 0 ? ratio(detailedInsts, totalInsts) : 1.0);
    w.field("sim.windows", windows);
    w.field("sim.ipc_rel_err_95", relErr);

    // ckpt: cold pass writes, re-run reads.
    w.field("ckpt.saves", traced.ckpt.saves);
    w.field("ckpt.hits", traced.ckpt.hits);
    w.field("ckpt.misses", traced.ckpt.misses);
    w.field("ckpt.load_failures", traced.ckpt.loadFailures);
    w.field("ckpt.mb_written", double(traced.ckpt.bytesWritten) / mb);
    w.field("ckpt.mb_read", double(traced.ckpt.bytesRead) / mb);
    w.field("ckpt.rerun_s", traced.rerunSeconds);
    w.field("ckpt.rerun_trace_s", traced.rerunAcquireSeconds);

    // sweep: per-cell host time of the traced pass.
    const std::vector<double> &cs = traced.cellSeconds;
    w.field("sweep.cell_p90_s", quantile(cs, 0.9));
    w.field("sweep.cell_max_s",
            cs.empty() ? 0.0 : *std::max_element(cs.begin(), cs.end()));
    w.field("sweep.cells", std::uint64_t(rs.size()));
    w.field("sweep.failed", failed);

    // Modelled work: must not move in a speed-only change.
    w.field("backend.committed", drive.committed);
    w.field("backend.rob_full_frac",
            ratio(double(drive.robFullCycles), double(drive.totalCycles)));
    w.field("backend.mem_order_flushes", memOrder);
    w.field("frontend.decode_resteers", resteers);
    w.field("frontend.wrong_path_insts", wrongPath);
    w.field("frontend.wrong_path_frac",
            ratio(double(wrongPath), double(wrongPath) + detailedInsts));
    w.field("core.coupled_cycle_frac",
            ratio(double(drive.coupledCycles),
                  double(drive.coupledCycles + drive.decoupledCycles)));
    w.field("core.coupled_periods", periods);
    w.field("core.switches", drive.switches);
    w.field("core.divergence_flushes", divFlushes);
    w.field("core.exec_flushes", execFlushes);
    w.field("core.inst_prefetches", prefetches);
    w.field("bpred.cond_mpki", ratio(condMisses * 1000.0, insts));
    w.field("bpred.branch_mpki", ratio(branchMisses * 1000.0, insts));
    w.field("btb.hit_l0", hitL0 / n);
    w.field("btb.hit_l1", hitL1 / n);
    w.field("btb.hit_l2", hitL2 / n);
    w.field("cache.l0i_miss_rate", l0iMiss / n);
    w.field("cache.l1d_mpki", ratio(l1dMisses * 1000.0, insts));

    // service / dist / export: the fleet path.
    w.field("service.shards", svc.shards);
    w.field("service.cells_ok", svc.cellsOk);
    w.field("service.artifacts", svc.artifacts);
    w.field("service.requests", svc.requests);
    w.field("dist.chunks", std::uint64_t(traced.coord.chunksDispatched));
    w.field("dist.traces_shipped", std::uint64_t(traced.coord.tracesShipped));
    w.field("dist.requeues", std::uint64_t(traced.coord.requeues));
    w.field("dist.leases_expired", std::uint64_t(traced.coord.leasesExpired));
    w.field("dist.connect_retries",
            std::uint64_t(traced.coord.connectRetries));
    w.field("export.results_s", traced.exportSeconds);
    w.field("export.results_mb", double(traced.exportBytes) / mb);

    w.field("trace.overhead_s", overheadSeconds);
    w.endObject();
}

std::uint64_t
peakRssKb()
{
    struct rusage ru;
    std::memset(&ru, 0, sizeof(ru));
    getrusage(RUSAGE_SELF, &ru);
    return std::uint64_t(ru.ru_maxrss);
}

service::SweepService::Counters
serviceCounters(const Setup &st)
{
    service::SweepService::Counters sum;
    for (const auto &w : st.workers) {
        const auto c = w->counters();
        sum.requests += c.requests;
        sum.shards += c.shards;
        sum.artifacts += c.artifacts;
        sum.cellsOk += c.cellsOk;
    }
    return sum;
}

/** Service counters accumulated between two snapshots. */
service::SweepService::Counters
serviceDelta(const service::SweepService::Counters &now,
             const service::SweepService::Counters &since)
{
    service::SweepService::Counters d;
    d.requests = now.requests - since.requests;
    d.shards = now.shards - since.shards;
    d.artifacts = now.artifacts - since.artifacts;
    d.cellsOk = now.cellsOk - since.cellsOk;
    return d;
}

std::string
hex(std::uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx", (unsigned long long)v);
    return buf;
}

/** Pin the process-wide caches to a known state: in-memory trace
 *  memo only, no checkpoint store unless a pass configures one. */
void
isolateCaches()
{
    TraceCache::instance().setDirectory("");
    TraceCache::instance().setEnabled(true);
    CheckpointStore::instance().setDirectory("");
    CheckpointStore::instance().setEnabled(true);
}

int
run(const Options &o)
{
    fs::create_directories(o.workDir);
    isolateCaches();
    const SweepSpec spec = loadSweepSpec(o.specPath);
    if ((o.mode == Mode::Sampled) != (!spec.groups.empty() &&
                                      spec.run.sampled()))
        throw UsageError("--mode sampled needs a sampled spec, and only "
                         "it may have one");

    Tracer tracer(o.trace);
    std::vector<double> setupSeconds;
    std::unique_ptr<Setup> st;
    auto setUpAgain = [&] {
        st.reset(); // stop the previous fleet before starting another
        // Hand the freed set-up back to the kernel, so peak RSS is one
        // set-up and pass's need, not what the allocator kept from the
        // earlier ones (the fleet's peak otherwise wandered by 10%).
        malloc_trim(0);
        st = setUp(o, spec, tracer);
        setupSeconds.push_back(st->seconds);
    };

    std::vector<Pass> passes;
    std::set<std::size_t> bad;
    std::map<std::string, bool> checks;
    DriveTotals drive;
    std::string referenceDigest;
    service::SweepService::Counters svcTraced;
    double overheadSeconds = 0;

    if (!o.trace) {
        // Host speed changes over seconds, so the set-up samples are
        // spread over the run like the passes are. A set-up that follows
        // a pass ran 20-50% slower than one that follows a set-up, so it
        // is not a sample: otherwise the median would depend on how many
        // passes fitted. Stop before a round of average length would
        // overrun --seconds.
        const auto t0 = Clock::now();
        double elapsed = 0;
        do {
            for (unsigned k = 0; k < o.setupReps; ++k) {
                setUpAgain();
                if (k == 0 && !passes.empty())
                    setupSeconds.pop_back();
            }
            passes.push_back(
                runPass(o, spec, *st, tracer, unsigned(passes.size())));
            elapsed = secondsBetween(t0, Clock::now());
        } while (elapsed + elapsed / double(passes.size()) <= o.seconds);
    } else {
        setUpAgain();
        // Untraced, traced, traced, untraced: the overhead estimate
        // cancels a steady drift in host speed across the four passes.
        // Per-layer numbers come from the first traced pass.
        Tracer off(false);
        passes.push_back(runPass(o, spec, *st, off, 0));
        const auto svc0 = serviceCounters(*st);
        {
            Span s(tracer, "pass.traced");
            passes.push_back(runPass(o, spec, *st, tracer, 1));
        }
        svcTraced = serviceDelta(serviceCounters(*st), svc0);
        {
            Span s(tracer, "pass.traced");
            passes.push_back(runPass(o, spec, *st, tracer, 2));
        }
        passes.push_back(runPass(o, spec, *st, off, 3));
        overheadSeconds =
            (passes[1].wallSeconds + passes[2].wallSeconds -
             passes[0].wallSeconds - passes[3].wallSeconds) /
            2.0;
    }

    std::set<std::size_t> passBad, rerunBad;
    for (const Pass &p : passes) {
        for (std::size_t i :
             differingCells(passes.front().results, p.results, cellBytes))
            passBad.insert(i);
        if (o.mode == Mode::Sampled)
            for (std::size_t i : differingCells(p.results, p.rerunResults,
                                                sampledCellBytes))
                rerunBad.insert(i);
    }
    checks["passes_identical"] = passBad.empty();
    bad.insert(passBad.begin(), passBad.end());
    if (o.mode == Mode::Sampled) {
        checks["rerun_equals_cold"] = rerunBad.empty();
        bad.insert(rerunBad.begin(), rerunBad.end());
        // The re-run must restore every window from the cold pass's
        // checkpoints; recomputing them would also give equal results.
        bool restored = true;
        for (const Pass &p : passes) {
            std::uint64_t windows = 0;
            for (const RunResult &r : p.results)
                windows += r.sampling.windows;
            restored = restored && windows > 0 &&
                       p.rerunCkpt.hits == windows &&
                       p.rerunCkpt.misses == 0 &&
                       p.rerunCkpt.loadFailures == 0;
        }
        checks["rerun_restored_every_window"] = restored;
        if (!restored)
            for (std::size_t i = 0; i < st->ex.jobs.size(); ++i)
                bad.insert(i);
    }
    if (o.mode == Mode::Fleet) {
        std::vector<RunResult> ref;
        const std::string bytes = referenceBytes(spec, *st, tracer, ref);
        referenceDigest = hex(fnv1a(bytes.data(), bytes.size()));
        bool same = true;
        for (const Pass &p : passes)
            same = same && p.bytes == bytes;
        checks["fleet_bytes_equal_local"] = same;
        // Every cell of every pass ran on a worker, on its first lease.
        bool ran = true;
        for (const Pass &p : passes)
            ran = ran && p.coord.cellsRun == st->ex.jobs.size() &&
                  p.coord.cellsFallback == 0 &&
                  p.coord.cellsSynthFailed == 0 &&
                  p.coord.leasesExpired == 0 && p.coord.requeues == 0;
        checks["fleet_ran_every_cell"] = ran;
        if (!same || !ran)
            for (std::size_t i = 0; i < st->ex.jobs.size(); ++i)
                bad.insert(i);
        for (std::size_t i :
             differingCells(ref, passes.front().results, cellBytes))
            bad.insert(i);
    }
    if (o.trace && o.mode != Mode::Sampled) {
        std::set<std::size_t> driveBad;
        drive = driveCells(spec, *st, passes.front().results, tracer,
                           driveBad);
        checks["traced_cycles_equal_untraced"] = driveBad.empty();
        bad.insert(driveBad.begin(), driveBad.end());
    }

    std::ofstream os(o.outPath, std::ios::trunc);
    if (!os)
        throw IoError("cannot write '" + o.outPath + "'");
    JsonWriter w(os);
    w.beginObject();
    w.field("schema", "elfsim-perfbench-raw-v1");
    w.field("spec_name", spec.name);
    w.field("base_seed", spec.baseSeed);
    w.field("sweep_threads", std::uint64_t(sweepThreads(spec)));
    w.field("traced", o.trace);
    w.key("build").beginObject();
    w.field("compiler", ELFSIM_PERFBENCH_COMPILER);
    w.field("build_type", ELFSIM_PERFBENCH_BUILD_TYPE);
    w.endObject();
    writeDoubles(w, "setup_s", setupSeconds);
    w.key("passes").beginArray();
    for (const Pass &p : passes) {
        w.beginObject();
        w.field("wall_s", p.wallSeconds);
        w.field("rerun_s", p.rerunSeconds);
        writeDoubles(w, "cell_s", p.cellSeconds);
        w.field("digest", hex(fnv1a(p.bytes.data(), p.bytes.size())));
        w.endObject();
    }
    w.endArray();
    writeCells(w, passes.front().results, st->ex.jobs);
    w.key("mismatched_cells").beginArray();
    for (std::size_t i : bad)
        w.value(std::uint64_t(i));
    w.endArray();
    w.key("checks").beginObject();
    for (const auto &[k, v] : checks)
        w.field(k, v);
    w.endObject();
    if (!referenceDigest.empty())
        w.field("reference_digest", referenceDigest);
    w.field("peak_rss_kb", peakRssKb());
    if (o.trace) {
        writeLayers(w, *st, passes[1], overheadSeconds, drive,
                    totalTraceActivity(), svcTraced);
        w.field("trace_events", std::uint64_t(tracer.size()));
    }
    w.endObject();
    os << "\n";
    if (!os.flush())
        throw IoError("short write to '" + o.outPath + "'");
    if (o.trace)
        tracer.write(o.traceFile);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        return run(parseArgs(argc, argv));
    } catch (const UsageError &e) {
        std::cerr << "elfsim_perfbench: " << e.what() << "\n";
        return 2;
    } catch (const std::exception &e) {
        std::cerr << "elfsim_perfbench: " << e.what() << "\n";
        return 1;
    }
}
