/**
 * @file
 * Distributed-sweep tests: wire-protocol round trips, the crash-safe
 * lease ledger on adversarial JSONL, SweepRunner's subset-merge
 * byte-identity (the invariant the whole layer rests on), the worker
 * endpoints of an in-process service, and full coordinator runs.
 *
 * The scheduling-level cases (kill -9 reassignment, one compile per
 * fleet) drive real `elfsimd --worker` subprocesses found via
 * $ELFSIM_BENCH_DIR — an in-process worker would share this process's
 * TraceCache singleton and fake the compile accounting.
 *
 * ShardStream's framing cases share one table with readHttpResponse
 * in tests/service/test_chunked.cc.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <signal.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <unistd.h>

#include "common/error.hh"
#include "common/fault.hh"
#include "common/json.hh"
#include "dist/coordinator.hh"
#include "dist/ledger.hh"
#include "dist/spawn.hh"
#include "dist/wire.hh"
#include "service/daemon.hh"
#include "service/http.hh"
#include "sim/export.hh"
#include "sim/sweep.hh"
#include "sim/sweep_spec.hh"
#include "workload/trace_cache.hh"

namespace elfsim {
namespace {

/**
 * A tiny but real grid: micro workloads crossed with two frontend
 * variants. Distinct tests use distinct generator args so the
 * process-wide TraceCache memo of earlier tests never masks a
 * compile this test expected to observe.
 */
SweepSpec
distSpec(const std::string &name,
         const std::vector<std::vector<double>> &microArgs,
         std::uint64_t warmup, std::uint64_t measure)
{
    SweepSpec spec;
    spec.name = name;
    spec.jobs = 1;
    spec.baseSeed = 7;
    spec.run.warmupInsts = warmup;
    spec.run.measureInsts = measure;
    SweepGroup g;
    for (const auto &args : microArgs)
        g.workloads.push_back(
            WorkloadSelector::micro("random_branch_loop", args));
    g.configs.emplace_back(FrontendVariant::Dcf);
    g.configs.emplace_back(FrontendVariant::UElf);
    spec.groups.push_back(std::move(g));
    return spec;
}

/** The single-process answer: the bytes every distributed run of the
 *  same spec must reproduce exactly. */
std::string
referenceBytes(const SweepSpec &spec)
{
    ExpandedSweep ex = expandSweep(spec);
    SweepRunner runner(1);
    runner.setBaseSeed(spec.baseSeed);
    const std::vector<RunResult> results = runner.run(ex.jobs);
    std::ostringstream os;
    writeResultsJson(os, results);
    return os.str();
}

std::string
mergedBytes(const std::vector<RunResult> &results)
{
    std::ostringstream os;
    writeResultsJson(os, results);
    return os.str();
}

std::vector<std::string>
splitLines(const std::string &text)
{
    std::vector<std::string> lines;
    std::istringstream is(text);
    std::string line;
    while (std::getline(is, line))
        if (!line.empty())
            lines.push_back(line);
    return lines;
}

std::string
tmpPath(const std::string &name)
{
    return ::testing::TempDir() + "/" + name;
}

/** elfsimd binary path, or "" when the env var is missing (running
 *  the test binary by hand outside ctest). */
std::string
workerBinary()
{
    const char *dir = std::getenv("ELFSIM_BENCH_DIR");
    return dir ? std::string(dir) + "/elfsimd" : std::string();
}

ManifestEntry
dummyEntry(std::size_t index, const std::string &key)
{
    ManifestEntry e;
    e.index = index;
    e.key = key;
    e.result.workload = "w" + std::to_string(index);
    e.result.variant = "DCF";
    return e;
}

std::string
manifestLine(std::size_t index, const std::string &key)
{
    std::ostringstream os;
    writeManifestLine(os, dummyEntry(index, key));
    return os.str();
}

std::string
leaseLine(std::size_t index, const std::string &key,
          const std::string &worker)
{
    dist::LeaseEvent e;
    e.kind = dist::LeaseEvent::Kind::Lease;
    e.index = index;
    e.key = key;
    e.worker = worker;
    e.leaseSeconds = 30;
    std::ostringstream os;
    dist::writeLeaseLine(os, e);
    return os.str();
}

std::string
expireLine(std::size_t index, const std::string &worker)
{
    dist::LeaseEvent e;
    e.kind = dist::LeaseEvent::Kind::Expire;
    e.index = index;
    e.worker = worker;
    std::ostringstream os;
    dist::writeLeaseLine(os, e);
    return os.str();
}

// ---------------------------------------------------------------- wire

TEST(DistWire, ShardRequestRoundTripsThroughCanonicalSpecText)
{
    const SweepSpec spec = distSpec("wire", {{8, 0.5}, {4, 0.9}},
                                    2000, 4000);
    const std::vector<std::size_t> cells = {3, 0, 2};
    const std::string body = dist::writeShardRequest(spec, cells);

    const dist::ShardRequest req = dist::parseShardRequest(body);
    EXPECT_EQ(req.cells, cells);

    // The embedded spec survives canonically: re-serializing the
    // parsed spec reproduces the exact text the worker's expansion
    // memo keys on.
    std::ostringstream sent, parsed;
    writeSweepSpec(sent, spec);
    writeSweepSpec(parsed, req.spec);
    EXPECT_EQ(parsed.str(), sent.str());

    EXPECT_THROW(dist::parseShardRequest("{\"schema\":\"nope\"}"),
                 SimError);
}

TEST(DistWire, StreamLinesParseBackToTheirKinds)
{
    const dist::ShardLine hb = dist::parseShardLine(
        dist::heartbeatLine().substr(0, dist::heartbeatLine().size() - 1));
    EXPECT_EQ(hb.kind, dist::ShardLine::Kind::Heartbeat);

    std::string done = dist::doneLine(5);
    done.pop_back(); // strip '\n'
    const dist::ShardLine dn = dist::parseShardLine(done);
    EXPECT_EQ(dn.kind, dist::ShardLine::Kind::Done);
    EXPECT_EQ(dn.cells, 5u);

    std::string res = manifestLine(3, "key3");
    res.pop_back();
    const dist::ShardLine rl = dist::parseShardLine(res);
    EXPECT_EQ(rl.kind, dist::ShardLine::Kind::Result);
    EXPECT_EQ(rl.entry.index, 3u);
    EXPECT_EQ(rl.entry.key, "key3");
    EXPECT_EQ(rl.entry.result.workload, "w3");

    EXPECT_THROW(dist::parseShardLine("{\"shard\":\"elfsim-shard-v1\","
                                      "\"event\":\"frobnicate\"}"),
                 SimError);
    EXPECT_THROW(dist::parseShardLine("not json at all"), SimError);
}

// -------------------------------------------------------------- ledger

TEST(DistLedger, LeaseLifecycleReplaysToCompletedAndOutstanding)
{
    std::ostringstream os;
    os << leaseLine(0, "k0", "w0");   // leased ...
    os << manifestLine(0, "k0");      // ... and completed
    os << leaseLine(1, "k1", "w0");   // leased ...
    os << expireLine(1, "w0");        // ... worker died
    os << leaseLine(1, "k1", "w1");   // re-leased, in flight at EOF
    os << leaseLine(2, "k2", "w1");   // in flight at EOF

    std::istringstream is(os.str());
    const dist::LedgerState state = dist::readLedger(is);
    ASSERT_EQ(state.completed.size(), 1u);
    EXPECT_EQ(state.completed[0].index, 0u);
    ASSERT_EQ(state.outstanding.size(), 2u);
    EXPECT_EQ(state.outstanding[0].index, 1u);
    EXPECT_EQ(state.outstanding[0].worker, "w1");
    EXPECT_EQ(state.outstanding[1].index, 2u);
    EXPECT_EQ(state.leaseLines, 4u);
    EXPECT_EQ(state.expireLines, 1u);
    EXPECT_EQ(state.skipped, 0u);
}

TEST(DistLedger, AdversarialLinesAreSkippedNeverFatal)
{
    std::ostringstream os;
    os << manifestLine(0, "first");
    os << leaseLine(1, "k1", "w0");
    os << "this is not json\n";                       // junk
    os << manifestLine(1, "k1");                      // completes 1
    os << "{\"ledger\":\"elfsim-ledger-v1\","
          "\"event\":\"frobnicate\",\"index\":9,"
          "\"worker\":\"w9\"}\n";                     // alien event
    os << "{\"manifest\":\"elfsim-manifest-v9\","
          "\"index\":5,\"key\":\"x\"}\n";             // alien schema
    os << manifestLine(0, "second");                  // duplicate: wins
    // A crash mid-append: the final line is torn in half, no newline.
    const std::string torn = manifestLine(2, "k2");
    os << torn.substr(0, torn.size() / 2);

    std::istringstream is(os.str());
    const dist::LedgerState state = dist::readLedger(is);
    ASSERT_EQ(state.completed.size(), 2u);
    EXPECT_EQ(state.completed[0].index, 0u);
    EXPECT_EQ(state.completed[0].key, "second"); // last line wins
    EXPECT_EQ(state.completed[1].index, 1u);
    EXPECT_TRUE(state.outstanding.empty());
    EXPECT_EQ(state.skipped, 4u);
}

TEST(DistLedger, PlainManifestReaderSurvivesInterleavedLedgerLines)
{
    // A ledger IS a valid resume manifest: the plain manifest reader
    // must skip the scheduling lines (and any torn tail) and still
    // return every completed cell.
    std::ostringstream os;
    os << leaseLine(0, "k0", "w0");
    os << manifestLine(0, "k0");
    os << leaseLine(1, "k1", "w1");
    os << expireLine(1, "w1");
    os << manifestLine(1, "k1");
    os << "garbage line\n";
    const std::string torn = manifestLine(2, "k2");
    os << torn.substr(0, torn.size() / 2);

    std::istringstream is(os.str());
    const std::vector<ManifestEntry> entries = readManifest(is);
    ASSERT_EQ(entries.size(), 2u);
    EXPECT_EQ(entries[0].index, 0u);
    EXPECT_EQ(entries[1].index, 1u);
}

// -------------------------------------------- subset-merge invariant

TEST(DistSubset, DisjointSubsetRunsMergeByteIdenticallyToFullRun)
{
    const SweepSpec spec = distSpec("subset", {{8, 0.5}, {4, 0.9}},
                                    2000, 4000);
    const std::string reference = referenceBytes(spec);
    ExpandedSweep ex = expandSweep(spec);

    SweepRunner a(1), b(1);
    a.setBaseSeed(spec.baseSeed);
    b.setBaseSeed(spec.baseSeed);
    const std::vector<RunResult> ra = a.run(ex.jobs, {0, 3});
    const std::vector<RunResult> rb = b.run(ex.jobs, {1, 2});

    std::vector<RunResult> merged(ex.jobs.size());
    merged[0] = ra[0];
    merged[3] = ra[3];
    merged[1] = rb[1];
    merged[2] = rb[2];
    EXPECT_EQ(mergedBytes(merged), reference);
}

// ------------------------------------------------- worker endpoints

TEST(DistWorker, ShardEndpointStreamsManifestLinesAndDone)
{
    const SweepSpec spec = distSpec("shard", {{8, 0.5}, {4, 0.9}},
                                    2000, 4000);
    ExpandedSweep ex = expandSweep(spec);

    service::ServiceConfig cfg;
    cfg.worker = true;
    cfg.jobs = 1;
    cfg.heartbeatMs = 5;
    service::SweepService svc(cfg);
    svc.start();

    const std::vector<std::size_t> cells = {0, 1, 2, 3};
    const service::HttpResponse resp =
        service::httpFetch("127.0.0.1", svc.port(), "POST", "/shard",
                           dist::writeShardRequest(spec, cells));
    ASSERT_EQ(resp.status, 200);

    std::vector<RunResult> merged(ex.jobs.size());
    std::size_t results = 0;
    bool sawDone = false;
    std::uint64_t doneCells = 0;
    for (const std::string &line : splitLines(resp.body)) {
        const dist::ShardLine sl = dist::parseShardLine(line);
        if (sl.kind == dist::ShardLine::Kind::Result) {
            ASSERT_LT(sl.entry.index, merged.size());
            EXPECT_EQ(sl.entry.key,
                      sweepJobKey(ex.jobs[sl.entry.index],
                                  sl.entry.index, spec.baseSeed));
            merged[sl.entry.index] = sl.entry.result;
            ++results;
        } else if (sl.kind == dist::ShardLine::Kind::Done) {
            sawDone = true;
            doneCells = sl.cells;
        }
    }
    EXPECT_EQ(results, cells.size());
    EXPECT_TRUE(sawDone);
    EXPECT_EQ(doneCells, cells.size());
    EXPECT_EQ(mergedBytes(merged), referenceBytes(spec));

    svc.stop();
}

TEST(DistWorker, FleetEndpointsRequireWorkerMode)
{
    service::SweepService svc; // worker = false
    svc.start();
    const SweepSpec spec = distSpec("fleet403", {{8, 0.5}}, 2000, 4000);
    EXPECT_EQ(service::httpFetch("127.0.0.1", svc.port(), "POST",
                                 "/shard",
                                 dist::writeShardRequest(spec, {0}))
                  .status,
              403);
    EXPECT_EQ(service::httpFetch("127.0.0.1", svc.port(), "POST",
                                 "/artifact/trace", "junk",
                                 {{"x-elfsim-key", "00000000000000aa"}})
                  .status,
              403);
    EXPECT_EQ(service::httpFetch("127.0.0.1", svc.port(), "POST",
                                 "/artifact/ckpt", "junk",
                                 {{"x-elfsim-name", "a.eckpt"}})
                  .status,
              403);
    svc.stop();
}

TEST(DistWorker, BadShardsAndCorruptArtifactsAreRejected)
{
    service::ServiceConfig cfg;
    cfg.worker = true;
    cfg.jobs = 1;
    service::SweepService svc(cfg);
    svc.start();

    const SweepSpec spec = distSpec("reject", {{8, 0.5}}, 2000, 4000);
    // Grid has 2 cells (1 micro x 2 variants): index 9 is out of range.
    EXPECT_EQ(service::httpFetch("127.0.0.1", svc.port(), "POST",
                                 "/shard",
                                 dist::writeShardRequest(spec, {9}))
                  .status,
              400);
    // Empty cell set: a shard that runs nothing is a caller bug.
    EXPECT_EQ(service::httpFetch("127.0.0.1", svc.port(), "POST",
                                 "/shard",
                                 dist::writeShardRequest(spec, {}))
                  .status,
              400);
    // A corrupt trace image must be rejected, not silently demoted to
    // a local recompile — that would break one-compile-per-fleet.
    EXPECT_EQ(service::httpFetch("127.0.0.1", svc.port(), "POST",
                                 "/artifact/trace", "not a trace",
                                 {{"x-elfsim-key", "00000000000000aa"},
                                  {"x-elfsim-name", "bad"}})
                  .status,
              400);
    // No checkpoint directory configured: uploads have nowhere to go.
    EXPECT_EQ(service::httpFetch("127.0.0.1", svc.port(), "POST",
                                 "/artifact/ckpt", "junk",
                                 {{"x-elfsim-name", "a.eckpt"}})
                  .status,
              400);
    svc.stop();
}

// ----------------------------------------------------- coordinator

TEST(DistCoordinator, MergesByteIdenticallyAndJournalsTheLedger)
{
    const SweepSpec spec = distSpec("coord", {{8, 0.5}, {4, 0.9}},
                                    2000, 4000);

    service::ServiceConfig wcfg;
    wcfg.worker = true;
    wcfg.jobs = 1;
    service::SweepService w1(wcfg), w2(wcfg);
    w1.start();
    w2.start();

    const std::string ledger = tmpPath("dist_coord_ledger.jsonl");
    std::remove(ledger.c_str());

    dist::CoordinatorConfig cfg;
    cfg.workers = {{"127.0.0.1", w1.port()}, {"127.0.0.1", w2.port()}};
    cfg.ledgerPath = ledger;
    cfg.chunkCells = 1;
    cfg.leaseSeconds = 30;
    dist::SweepCoordinator coord(cfg);
    const std::vector<RunResult> results = coord.run(spec);

    EXPECT_EQ(mergedBytes(results), referenceBytes(spec));
    EXPECT_EQ(coord.stats().cellsTotal, 4u);
    EXPECT_EQ(coord.stats().cellsRun, 4u);
    EXPECT_EQ(coord.stats().cellsAdopted, 0u);
    EXPECT_EQ(coord.stats().cellsSynthFailed, 0u);
    EXPECT_EQ(coord.stats().chunksDispatched, 4u);
    EXPECT_EQ(coord.stats().leasesExpired, 0u);

    // The ledger replays to exactly the completed grid.
    std::ifstream is(ledger);
    ASSERT_TRUE(is.good());
    const dist::LedgerState state = dist::readLedger(is);
    EXPECT_EQ(state.completed.size(), 4u);
    EXPECT_TRUE(state.outstanding.empty());
    EXPECT_EQ(state.leaseLines, 4u);
    EXPECT_EQ(state.skipped, 0u);

    // Resume from the finished ledger: every cell is adopted, no
    // worker is ever contacted (the endpoint below is unreachable).
    dist::CoordinatorConfig rcfg;
    rcfg.workers = {{"127.0.0.1", 9}};
    rcfg.ledgerPath = ledger;
    rcfg.resume = true;
    dist::SweepCoordinator resumed(rcfg);
    const std::vector<RunResult> adopted = resumed.run(spec);
    EXPECT_EQ(mergedBytes(adopted), referenceBytes(spec));
    EXPECT_EQ(resumed.stats().cellsAdopted, 4u);
    EXPECT_EQ(resumed.stats().cellsRun, 0u);

    w1.stop();
    w2.stop();
    std::remove(ledger.c_str());
}

TEST(DistCoordinator, SpawnedFleetMergesByteIdentically)
{
    const std::string bin = workerBinary();
    if (bin.empty())
        GTEST_SKIP() << "ELFSIM_BENCH_DIR not set";

    const SweepSpec spec = distSpec("fleet", {{7, 0.45}, {5, 0.85}},
                                    2000, 4000);
    std::vector<dist::LocalWorker> fleet =
        dist::spawnLocalWorkers(bin, 2, 1);

    dist::CoordinatorConfig cfg;
    for (const dist::LocalWorker &w : fleet)
        cfg.workers.push_back({"127.0.0.1", w.port});
    cfg.leaseSeconds = 30;
    dist::SweepCoordinator coord(cfg);
    std::vector<RunResult> results;
    try {
        results = coord.run(spec);
    } catch (...) {
        dist::stopLocalWorkers(fleet);
        throw;
    }
    dist::stopLocalWorkers(fleet);

    EXPECT_EQ(mergedBytes(results), referenceBytes(spec));
    EXPECT_EQ(coord.stats().cellsRun, 4u);
}

TEST(DistCoordinator, KillNineWorkerExpiresLeasesAndReassignsCells)
{
    const std::string bin = workerBinary();
    if (bin.empty())
        GTEST_SKIP() << "ELFSIM_BENCH_DIR not set";

    // 8 cells so the victim provably completes work before it dies.
    const SweepSpec spec =
        distSpec("kill9",
                 {{10, 0.4}, {6, 0.8}, {12, 0.3}, {5, 0.6}},
                 2000, 4000);
    const std::string reference = referenceBytes(spec);

    std::vector<dist::LocalWorker> fleet =
        dist::spawnLocalWorkers(bin, 2, 1);
    const std::string victimId =
        "127.0.0.1:" + std::to_string(fleet[0].port);
    const pid_t victimPid = fleet[0].pid;

    dist::CoordinatorConfig cfg;
    for (const dist::LocalWorker &w : fleet)
        cfg.workers.push_back({"127.0.0.1", w.port});
    cfg.ledgerPath = tmpPath("dist_kill9_ledger.jsonl");
    std::remove(cfg.ledgerPath.c_str());
    cfg.chunkCells = 1;
    cfg.leaseSeconds = 10;
    // Quarantine the victim on its first failure so its cells requeue
    // exactly once — the merge must not depend on retry accounting.
    cfg.maxWorkerFailures = 1;
    cfg.maxCellRetries = 16;

    dist::SweepCoordinator coord(cfg);
    std::atomic<unsigned> victimLeases{0};
    coord.setLeaseObserver(
        [&](const std::vector<std::size_t> &, const std::string &id)
        {
            // Let the victim finish its first chunk, then SIGKILL it
            // the moment its second lease is journaled: that lease
            // can only be satisfied by expiry and reassignment.
            if (id == victimId && ++victimLeases == 2)
                ::kill(victimPid, SIGKILL);
        });

    std::vector<RunResult> results;
    try {
        results = coord.run(spec);
    } catch (...) {
        dist::stopLocalWorkers(fleet);
        throw;
    }
    dist::stopLocalWorkers(fleet);

    EXPECT_GE(victimLeases.load(), 2u);
    EXPECT_GE(coord.stats().leasesExpired, 1u);
    EXPECT_GE(coord.stats().requeues, 1u);
    // The victim lands in quarantine (not permanent retirement); its
    // health probes against the killed port never succeed, so it is
    // either declared dead (probe budget spent) or still in probation
    // when the survivor finishes the grid — never re-admitted.
    EXPECT_EQ(coord.stats().quarantines, 1u);
    EXPECT_EQ(coord.stats().readmissions, 0u);
    EXPECT_LE(coord.stats().workersDead, 1u);
    EXPECT_EQ(coord.stats().cellsSynthFailed, 0u);
    EXPECT_EQ(coord.stats().cellsRun, 8u);
    EXPECT_EQ(mergedBytes(results), reference);

    // The ledger tells the same story: expiries recorded, every cell
    // completed, nothing outstanding.
    std::ifstream is(cfg.ledgerPath);
    ASSERT_TRUE(is.good());
    const dist::LedgerState state = dist::readLedger(is);
    EXPECT_EQ(state.completed.size(), 8u);
    EXPECT_TRUE(state.outstanding.empty());
    EXPECT_GE(state.expireLines, 1u);
    std::remove(cfg.ledgerPath.c_str());
}

TEST(DistCoordinator, FleetCompilesEachProgramOnce)
{
    const std::string bin = workerBinary();
    if (bin.empty())
        GTEST_SKIP() << "ELFSIM_BENCH_DIR not set";
    if (!TraceCache::instance().enabled())
        GTEST_SKIP() << "trace compilation disabled in this environment";

    // Unique generator args + budget: nothing earlier in this process
    // (or in the fresh workers) has compiled these traces.
    const SweepSpec spec = distSpec("fleetcompile",
                                    {{11, 0.35}, {9, 0.65}},
                                    2500, 4500);

    std::vector<dist::LocalWorker> fleet =
        dist::spawnLocalWorkers(bin, 2, 1);

    dist::CoordinatorConfig cfg;
    for (const dist::LocalWorker &w : fleet)
        cfg.workers.push_back({"127.0.0.1", w.port});
    cfg.chunkCells = 1;
    cfg.leaseSeconds = 30;
    dist::SweepCoordinator coord(cfg);

    const TraceStats before = TraceCache::instance().stats();
    std::vector<RunResult> results;
    std::uint64_t workerCompiles = 0, workerHits = 0, workerShards = 0;
    try {
        results = coord.run(spec);
        for (const dist::LocalWorker &w : fleet) {
            const service::HttpResponse resp = service::httpFetch(
                "127.0.0.1", w.port, "GET", "/stats");
            ASSERT_EQ(resp.status, 200);
            const json::Value doc = json::parse(resp.body);
            workerCompiles +=
                doc.at("trace").at("trace.compiles").asU64();
            workerHits +=
                doc.at("trace").at("trace.cache_hits").asU64();
            workerShards +=
                doc.at("service").at("service.shards").asU64();
        }
    } catch (...) {
        dist::stopLocalWorkers(fleet);
        throw;
    }
    dist::stopLocalWorkers(fleet);
    const TraceStats delta = TraceCache::instance().stats().delta(before);

    EXPECT_EQ(mergedBytes(results), referenceBytes(spec));

    // One compile per distinct program, fleet-wide: both live in the
    // coordinator; the workers only install the shipped images and
    // hit their memos.
    EXPECT_EQ(delta.compiles, 2u);
    EXPECT_EQ(workerCompiles, 0u);
    EXPECT_GE(workerHits, 1u);
    EXPECT_GE(workerShards, 1u);
    EXPECT_EQ(coord.stats().tracesShipped, 4u); // 2 programs x 2 workers
}

// ------------------------------------------------- chaos (net faults)

/**
 * Arm the process-wide injector for one test; disarm on any exit
 * path so a failing assertion cannot poison the next test.
 *
 * Ordering matters: construct this BEFORE the in-process worker
 * services and let it unwind after they stop. Thread creation is the
 * only happens-before edge the armed list gets, so arming while a
 * service thread is already polling would be a data race (and a
 * service thread could legitimately keep seeing the pre-arm state).
 */
struct ScopedFaults
{
    explicit ScopedFaults(const std::string &spec)
    {
        FaultInjector::instance().arm(FaultInjector::parse(spec));
    }
    ~ScopedFaults() { FaultInjector::instance().disarm(); }
};

/** N in-process worker services plus a coordinator config pointed at
 *  them (chunk = 1 cell so scheduling decisions are visible). */
struct InProcFleet
{
    std::vector<std::unique_ptr<service::SweepService>> workers;
    dist::CoordinatorConfig cfg;

    explicit InProcFleet(std::size_t n)
    {
        service::ServiceConfig wcfg;
        wcfg.worker = true;
        wcfg.jobs = 1;
        for (std::size_t i = 0; i < n; ++i) {
            workers.push_back(
                std::make_unique<service::SweepService>(wcfg));
            workers.back()->start();
            cfg.workers.push_back(
                {"127.0.0.1", workers.back()->port()});
        }
        cfg.leaseSeconds = 30;
        cfg.chunkCells = 1;
    }

    ~InProcFleet()
    {
        for (auto &w : workers)
            w->stop();
    }
};

/**
 * 1-based ordinal of the first shard-stream line delivered to a
 * worker, for netdrop/nethb specs that must hit the stream rather
 * than the staging pass: artifact uploads consume the first
 * droppable-event ordinals (one per distinct program when trace
 * compilation is enabled), stream lines follow.
 */
std::uint64_t
firstStreamEvent(std::size_t programs)
{
    return (TraceCache::instance().enabled() ? programs : 0) + 1;
}

TEST(DistChaos, RefusedConnectsBackOffAndRecover)
{
    // Refuse the first two connects to worker 0. Depending on whether
    // trace compilation is enabled they land on the staging uploads
    // (upload retry path) or on the first shard dispatches (connect
    // backoff path); either way the run must recover without
    // quarantining anyone and merge byte-identically.
    ScopedFaults faults("netrefuse:0:2");
    const SweepSpec spec = distSpec("netrefuse", {{13, 0.55}, {3, 0.7}},
                                    2000, 4000);
    const std::string reference = referenceBytes(spec);

    InProcFleet fleet(2);
    fleet.cfg.reconnectBaseMs = 1;
    fleet.cfg.reconnectCapMs = 8;
    dist::SweepCoordinator coord(fleet.cfg);
    const std::vector<RunResult> results = coord.run(spec);

    EXPECT_EQ(mergedBytes(results), reference);
    EXPECT_EQ(coord.stats().cellsRun, 4u);
    EXPECT_GE(coord.stats().connectRetries +
                  coord.stats().artifactRetries,
              2u);
    EXPECT_EQ(coord.stats().quarantines, 0u);
    EXPECT_EQ(coord.stats().cellsSynthFailed, 0u);
}

TEST(DistChaos, MidStreamDisconnectRequeuesTheChunk)
{
    // Tear worker 0's shard stream at its first delivered line: the
    // chunk's cells expire, requeue, and complete elsewhere.
    ScopedFaults faults(
        "netdrop:0:" + std::to_string(firstStreamEvent(2)));
    const SweepSpec spec = distSpec("netdrop", {{15, 0.52}, {9, 0.33}},
                                    2000, 4000);
    const std::string reference = referenceBytes(spec);

    InProcFleet fleet(2);
    fleet.cfg.ledgerPath = tmpPath("dist_netdrop_ledger.jsonl");
    std::remove(fleet.cfg.ledgerPath.c_str());
    dist::SweepCoordinator coord(fleet.cfg);
    const std::vector<RunResult> results = coord.run(spec);

    EXPECT_EQ(mergedBytes(results), reference);
    EXPECT_EQ(coord.stats().cellsRun, 4u);
    EXPECT_GE(coord.stats().leasesExpired, 1u);
    EXPECT_GE(coord.stats().requeues, 1u);
    EXPECT_EQ(coord.stats().cellsSynthFailed, 0u);

    std::ifstream is(fleet.cfg.ledgerPath);
    ASSERT_TRUE(is.good());
    const dist::LedgerState state = dist::readLedger(is);
    EXPECT_EQ(state.completed.size(), 4u);
    EXPECT_TRUE(state.outstanding.empty());
    EXPECT_GE(state.expireLines, 1u);
    std::remove(fleet.cfg.ledgerPath.c_str());
}

TEST(DistChaos, TruncatedStreamNeverPoisonsTheMerge)
{
    // Cut worker 0's stream 25 raw bytes in — mid-line, so a torn
    // JSON prefix is delivered and must be discarded, never merged.
    ScopedFaults faults("nettrunc:0:25");
    const SweepSpec spec = distSpec("nettrunc", {{16, 0.48}, {7, 0.72}},
                                    2000, 4000);
    const std::string reference = referenceBytes(spec);

    InProcFleet fleet(2);
    dist::SweepCoordinator coord(fleet.cfg);
    const std::vector<RunResult> results = coord.run(spec);

    EXPECT_EQ(mergedBytes(results), reference);
    EXPECT_EQ(coord.stats().cellsRun, 4u);
    EXPECT_GE(coord.stats().requeues, 1u);
    EXPECT_EQ(coord.stats().cellsSynthFailed, 0u);
}

TEST(DistChaos, CorruptedArtifactIsRejectedAndResent)
{
    if (!TraceCache::instance().enabled())
        GTEST_SKIP() << "trace compilation disabled in this environment";

    // Flip a byte in the first trace image sent to worker 0: the
    // worker's content-hash check 400s it, the retry is intact, and
    // every program still reaches every worker.
    ScopedFaults faults("netcorrupt:0:1");
    const SweepSpec spec = distSpec("netcorrupt",
                                    {{17, 0.38}, {8, 0.68}},
                                    2000, 4000);
    const std::string reference = referenceBytes(spec);

    InProcFleet fleet(2);
    dist::SweepCoordinator coord(fleet.cfg);
    const std::vector<RunResult> results = coord.run(spec);

    EXPECT_EQ(mergedBytes(results), reference);
    EXPECT_GE(coord.stats().artifactRetries, 1u);
    EXPECT_EQ(coord.stats().tracesShipped, 4u); // 2 programs x 2 workers
    EXPECT_EQ(coord.stats().quarantines, 0u);
}

TEST(DistChaos, ArtifactUploadRetriesAfterTransientDisconnect)
{
    if (!TraceCache::instance().enabled())
        GTEST_SKIP() << "trace compilation disabled in this environment";

    // The first droppable event to worker 0 is its first staging
    // upload: the connection tears mid-upload and the retry lands.
    ScopedFaults faults("netdrop:0:1");
    const SweepSpec spec = distSpec("artretry", {{18, 0.44}, {6, 0.56}},
                                    2000, 4000);
    const std::string reference = referenceBytes(spec);

    InProcFleet fleet(2);
    dist::SweepCoordinator coord(fleet.cfg);
    const std::vector<RunResult> results = coord.run(spec);

    EXPECT_EQ(mergedBytes(results), reference);
    EXPECT_GE(coord.stats().artifactRetries, 1u);
    EXPECT_EQ(coord.stats().tracesShipped, 4u);
    EXPECT_EQ(coord.stats().quarantines, 0u);
    EXPECT_EQ(coord.stats().cellsRun, 4u);
}

TEST(DistChaos, DroppedHeartbeatsExpireTheLease)
{
    // Heartbeat silence shows up as a receive timeout on worker 0's
    // first stream line: the lease expires and the cells requeue.
    ScopedFaults faults(
        "nethb:0:" + std::to_string(firstStreamEvent(2)));
    const SweepSpec spec = distSpec("nethb", {{19, 0.41}, {10, 0.61}},
                                    2000, 4000);
    const std::string reference = referenceBytes(spec);

    InProcFleet fleet(2);
    dist::SweepCoordinator coord(fleet.cfg);
    const std::vector<RunResult> results = coord.run(spec);

    EXPECT_EQ(mergedBytes(results), reference);
    EXPECT_EQ(coord.stats().cellsRun, 4u);
    EXPECT_GE(coord.stats().leasesExpired, 1u);
    EXPECT_GE(coord.stats().requeues, 1u);
    EXPECT_EQ(coord.stats().cellsSynthFailed, 0u);
}

TEST(DistChaos, QuarantinedWorkerIsReadmittedByHealthProbe)
{
    // Worker 0's first stream line tears its first chunk (one-shot);
    // the service itself stays healthy, so the very first /healthz
    // probe re-admits it and it finishes real work afterwards. The
    // 20 ms send delay on worker 1 keeps the 8-cell queue occupied
    // while the victim sits in probation.
    ScopedFaults faults(
        "netdrop:0:" + std::to_string(firstStreamEvent(4)) +
        ",netslow:1:0");
    const SweepSpec spec =
        distSpec("readmit",
                 {{20, 0.36}, {11, 0.58}, {13, 0.29}, {6, 0.47}},
                 2000, 4000);
    const std::string reference = referenceBytes(spec);

    InProcFleet fleet(2);
    fleet.cfg.maxWorkerFailures = 1; // first failure -> quarantine
    fleet.cfg.probeBaseMs = 1;
    fleet.cfg.probeCapMs = 4;
    dist::SweepCoordinator coord(fleet.cfg);
    const std::vector<RunResult> results = coord.run(spec);

    EXPECT_EQ(mergedBytes(results), reference);
    EXPECT_EQ(coord.stats().cellsRun, 8u);
    EXPECT_EQ(coord.stats().quarantines, 1u);
    EXPECT_EQ(coord.stats().readmissions, 1u);
    EXPECT_EQ(coord.stats().workersDead, 0u);
    EXPECT_EQ(coord.stats().cellsSynthFailed, 0u);
}

TEST(DistChaos, HedgedDispatchDuplicatesTheStragglerOnce)
{
    // A two-cell grid: both workers lease their primary at t=0, so
    // their run times track each other closely — except cell 1, whose
    // injected sleeps (the spec is repeated: every matching entry
    // fires per poll, so six entries buy ~6 ms per poll and roughly
    // 100 ms of straggling) make it finish far behind cell 0. The
    // early finisher goes idle, waits out the hedge delay, and
    // duplicates the straggler. First completion wins; the loser's
    // lease expires without a requeue. (The reference run below also
    // pays the sleeps; 'slow' never changes simulated bytes, only
    // wall time.)
    ScopedFaults faults("slow:1:0,slow:1:0,slow:1:0,"
                        "slow:1:0,slow:1:0,slow:1:0");
    const SweepSpec spec = distSpec("hedge", {{14, 0.42}},
                                    2000, 48000);
    const std::string reference = referenceBytes(spec);

    InProcFleet fleet(2);
    fleet.cfg.hedgeDelayMs = 2;
    fleet.cfg.ledgerPath = tmpPath("dist_hedge_ledger.jsonl");
    std::remove(fleet.cfg.ledgerPath.c_str());
    dist::SweepCoordinator coord(fleet.cfg);
    const std::vector<RunResult> results = coord.run(spec);

    EXPECT_EQ(mergedBytes(results), reference);
    EXPECT_EQ(coord.stats().cellsRun, 2u);
    EXPECT_GE(coord.stats().hedges, 1u);
    // A losing hedge is not a scheduling failure: nothing requeues,
    // no lease "expires" in the accounting sense.
    EXPECT_EQ(coord.stats().leasesExpired, 0u);
    EXPECT_EQ(coord.stats().requeues, 0u);
    EXPECT_EQ(coord.stats().cellsSynthFailed, 0u);

    // The ledger carries the hedge lines, and replay still resolves
    // to the completed grid with nothing outstanding: hedges are
    // redundant racers, never scheduling truth.
    std::ifstream is(fleet.cfg.ledgerPath);
    ASSERT_TRUE(is.good());
    const dist::LedgerState state = dist::readLedger(is);
    EXPECT_EQ(state.completed.size(), 2u);
    EXPECT_TRUE(state.outstanding.empty());
    EXPECT_GE(state.leaseLines, 3u); // 2 primaries + >=1 hedge
    std::remove(fleet.cfg.ledgerPath.c_str());
}

TEST(DistChaos, FleetLossFallsBackInProcessByteIdentically)
{
    // Every connect to every worker is refused: both workers drain
    // their probe budgets and die, and the coordinator finishes the
    // whole grid in-process — byte-identical to a --local run.
    ScopedFaults faults("netrefuse:*:0");
    const SweepSpec spec = distSpec("fleetloss", {{21, 0.37}, {12, 0.57}},
                                    2000, 4000);
    const std::string reference = referenceBytes(spec);

    InProcFleet fleet(2);
    fleet.cfg.maxWorkerFailures = 1;
    fleet.cfg.connectAttempts = 2;
    fleet.cfg.reconnectBaseMs = 1;
    fleet.cfg.reconnectCapMs = 4;
    fleet.cfg.quarantineProbes = 2;
    fleet.cfg.probeBaseMs = 1;
    fleet.cfg.probeCapMs = 4;
    fleet.cfg.ledgerPath = tmpPath("dist_fleetloss_ledger.jsonl");
    std::remove(fleet.cfg.ledgerPath.c_str());
    dist::SweepCoordinator coord(fleet.cfg);
    const std::vector<RunResult> results = coord.run(spec);

    EXPECT_EQ(mergedBytes(results), reference);
    EXPECT_EQ(coord.stats().cellsRun, 0u);
    EXPECT_EQ(coord.stats().cellsFallback, 4u);
    EXPECT_EQ(coord.stats().quarantines, 2u);
    EXPECT_EQ(coord.stats().workersDead, 2u);
    EXPECT_EQ(coord.stats().cellsSynthFailed, 0u);

    // The fallback journals its own leases and completions: replay
    // resolves to the full grid, nothing outstanding.
    std::ifstream is(fleet.cfg.ledgerPath);
    ASSERT_TRUE(is.good());
    const dist::LedgerState state = dist::readLedger(is);
    EXPECT_EQ(state.completed.size(), 4u);
    EXPECT_TRUE(state.outstanding.empty());
    std::remove(fleet.cfg.ledgerPath.c_str());
}

TEST(DistChaos, LeaseNotExceedingHeartbeatIsRejectedUpFront)
{
    const SweepSpec spec = distSpec("cfgerr", {{8, 0.5}}, 100, 100);
    dist::CoordinatorConfig cfg;
    cfg.workers = {{"127.0.0.1", 9}};
    cfg.leaseSeconds = 1;
    cfg.workerHeartbeatMs = 1000;
    dist::SweepCoordinator coord(cfg);
    EXPECT_THROW(coord.run(spec), ConfigError);
}

} // namespace
} // namespace elfsim
