/**
 * @file
 * elfsim-coord — distributed sweep coordinator CLI
 * (dist/coordinator.hh). Shards an elfsim-sweepspec-v1 grid across a
 * fleet of `elfsimd --worker` processes and writes the merged
 * elfsim-results-v2 document — byte-identical to a single-process run
 * of the same spec (`--local` produces the reference bytes).
 *
 *   # one-host fleet: spawn 4 workers on ephemeral ports
 *   elfsim-coord --spec fig9.spec.json --spawn 4 --json fig9.json
 *
 *   # pre-started fleet (possibly remote ports forwarded locally)
 *   elfsimd --worker --port 8401 &   elfsimd --worker --port 8402 &
 *   elfsim-coord --spec fig9.spec.json \
 *       --workers 127.0.0.1:8401,127.0.0.1:8402 \
 *       --ledger fig9.ledger.jsonl --json fig9.json
 *
 *   # single-process reference (same output bytes, no fleet)
 *   elfsim-coord --spec fig9.spec.json --local --json ref.json
 */

#include <cstdio>
#include <cstring>
#include <fstream>

#include "bench_util.hh"
#include "dist/coordinator.hh"
#include "dist/spawn.hh"
#include "service/http.hh"

using namespace elfsim;
using namespace elfsim::bench;

namespace {

void
printCoordUsage(const char *argv0, std::FILE *to)
{
    std::fprintf(
        to,
        "usage: %s --spec PATH (--workers LIST | --spawn N | --local) "
        "[options]\n"
        "  --spec PATH     elfsim-sweepspec-v1 grid to run (required)\n"
        "  --workers LIST  comma-separated host:port worker "
        "endpoints\n"
        "  --spawn N       spawn N local `elfsimd --worker` processes "
        "on ephemeral\n"
        "                  ports (stopped on exit)\n"
        "  --worker-bin P  elfsimd binary for --spawn (default: "
        "elfsimd next to\n"
        "                  this binary, or $ELFSIM_BENCH_DIR/elfsimd)\n"
        "  --worker-jobs N sweep threads per spawned worker (default "
        "1)\n"
        "  --local         no fleet: run the grid in this process "
        "(reference bytes)\n"
        "  --jobs N        --local only: sweep threads (default: "
        "spec, then auto)\n"
        "  --ledger PATH   journal leases + completed cells (crash-"
        "safe JSONL)\n"
        "  --resume PATH   like --ledger, but first adopt the ok "
        "cells already in it\n"
        "  --lease S       declare a silent worker dead after S "
        "seconds (default 30;\n"
        "                  must exceed the worker heartbeat period)\n"
        "  --chunk N       cells per lease (default: pending / (4 * "
        "workers))\n"
        "  --hedge MS      idle workers duplicate straggler cells "
        "after MS ms\n"
        "                  (first completion wins; default off)\n"
        "  --worker-failures N  chunk failures before a worker is "
        "quarantined\n"
        "                  (default 3)\n"
        "  --cell-retries N  lease expiries before a cell degrades to "
        "failed\n"
        "                  (default 3)\n"
        "  --probes N      health probes before a quarantined worker "
        "is declared\n"
        "                  dead (default 5)\n"
        "  --probe-base-ms MS  probation-probe backoff base (default "
        "100)\n"
        "  --backoff-seed N  seed of the jittered-backoff streams "
        "(replayable)\n"
        "  --worker-heartbeat-ms MS  the fleet's heartbeat period "
        "(default 1000;\n"
        "                  --spawn forwards it to its workers)\n"
        "  --no-fallback   fail leftover cells instead of finishing "
        "them\n"
        "                  in-process when the whole fleet is lost\n"
        "  --json PATH     write the merged elfsim-results-v2 "
        "document\n"
        "  --stats-json PATH  write the scheduling counters "
        "(elfsim-coordstats-v1)\n"
        "  --trace-cache D / --ckpt-cache D / --no-ckpt\n"
        "                  artifact-cache knobs (as in the benches); "
        "--spawn passes\n"
        "                  --ckpt-cache through to its workers\n"
        "  --help          this text\n"
        "exit status: 0 ok, 1 fleet/export error, 2 usage error, "
        "3 failed cells\n",
        argv0);
}

std::vector<dist::WorkerEndpoint>
parseWorkerList(const char *argv0, const std::string &list)
{
    std::vector<dist::WorkerEndpoint> out;
    std::size_t at = 0;
    while (at <= list.size()) {
        std::size_t comma = list.find(',', at);
        if (comma == std::string::npos)
            comma = list.size();
        const std::string item = list.substr(at, comma - at);
        at = comma + 1;
        if (item.empty())
            continue;
        const std::size_t colon = item.rfind(':');
        // The port follows parseCount's strict contract (digits
        // only, exit 2 otherwise) and must be 1..65535.
        const std::uint64_t port =
            colon == std::string::npos || colon == 0
                ? 0
                : bench::parseCount(argv0, "--workers port",
                                    item.c_str() + colon + 1, 65535);
        if (port == 0) {
            std::fprintf(stderr,
                         "%s: --workers expects host:port entries "
                         "('%s')\n",
                         argv0, item.c_str());
            std::exit(2);
        }
        dist::WorkerEndpoint ep;
        ep.host = item.substr(0, colon);
        ep.port = std::uint16_t(port);
        out.push_back(std::move(ep));
    }
    return out;
}

/** elfsimd for --spawn: next to this binary, else $ELFSIM_BENCH_DIR. */
std::string
defaultWorkerBin(const char *argv0)
{
    const std::string self = argv0;
    const std::size_t slash = self.rfind('/');
    if (slash != std::string::npos)
        return self.substr(0, slash + 1) + "elfsimd";
    if (const char *dir = std::getenv("ELFSIM_BENCH_DIR"))
        return std::string(dir) + "/elfsimd";
    return "elfsimd";
}

/** Sum of trace.compiles over the fleet's /stats documents — the
 *  one-compile-per-fleet evidence printed after a distributed run. */
void
printFleetTraceStats(const std::vector<dist::WorkerEndpoint> &workers)
{
    std::uint64_t compiles = 0, hits = 0;
    bool any = false;
    for (const dist::WorkerEndpoint &ep : workers) {
        try {
            const service::HttpResponse resp = service::httpFetch(
                ep.host, ep.port, "GET", "/stats");
            if (resp.status != 200)
                continue;
            const json::Value doc = json::parse(resp.body);
            compiles += doc.at("trace").at("trace.compiles").asU64();
            hits += doc.at("trace").at("trace.cache_hits").asU64();
            any = true;
        } catch (const SimError &) {
            // A worker that died mid-run has no stats to sum.
        }
    }
    if (any)
        std::printf("fleet trace stats: %llu compile(s), %llu cache "
                    "hit(s) across %zu worker(s)\n",
                    (unsigned long long)compiles,
                    (unsigned long long)hits, workers.size());
}

int
resultsExit(const std::vector<RunResult> &results)
{
    std::size_t bad = 0;
    for (const RunResult &r : results) {
        if (r.ok())
            continue;
        ++bad;
        std::fprintf(stderr,
                     "cell %s/%s %s after %llu attempt(s): %s\n",
                     r.workload.c_str(), r.variant.c_str(),
                     jobStatusName(r.status),
                     (unsigned long long)r.attempts, r.error.c_str());
    }
    if (bad) {
        std::fprintf(stderr, "%zu of %zu cells did not complete ok\n",
                     bad, results.size());
        return 3;
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string specPath, workerList, workerBin, ledgerPath, jsonPath;
    std::string statsJsonPath;
    std::string traceCacheDir, ckptCacheDir;
    bool noCkpt = false;
    bool local = false, resume = false, noFallback = false;
    std::size_t spawnCount = 0, chunkCells = 0;
    unsigned workerJobs = 1, jobs = 0, leaseSeconds = 30;
    unsigned hedgeMs = 0, workerFailures = 3, cellRetries = 3;
    unsigned probes = 5, probeBaseMs = 100, heartbeatMs = 1000;
    bool haveBackoffSeed = false;
    std::uint64_t backoffSeed = 0;

    const auto value = [&](int &i) -> const char * {
        if (i + 1 >= argc) {
            std::fprintf(stderr, "%s: option '%s' needs a value\n",
                         argv[0], argv[i]);
            std::exit(2);
        }
        return argv[++i];
    };
    for (int i = 1; i < argc; ++i) {
        if (!std::strcmp(argv[i], "--spec"))
            specPath = value(i);
        else if (!std::strcmp(argv[i], "--workers"))
            workerList = value(i);
        else if (!std::strcmp(argv[i], "--spawn"))
            spawnCount = std::size_t(
                parseCount(argv[0], "--spawn", value(i), 256));
        else if (!std::strcmp(argv[i], "--worker-bin"))
            workerBin = value(i);
        else if (!std::strcmp(argv[i], "--worker-jobs"))
            workerJobs = unsigned(parseCount(argv[0], "--worker-jobs",
                                             value(i), UINT_MAX));
        else if (!std::strcmp(argv[i], "--local"))
            local = true;
        else if (!std::strcmp(argv[i], "--jobs"))
            jobs = unsigned(
                parseCount(argv[0], "--jobs", value(i), UINT_MAX));
        else if (!std::strcmp(argv[i], "--ledger"))
            ledgerPath = value(i);
        else if (!std::strcmp(argv[i], "--resume")) {
            ledgerPath = value(i);
            resume = true;
        } else if (!std::strcmp(argv[i], "--lease"))
            leaseSeconds = unsigned(
                parseCount(argv[0], "--lease", value(i), 86400));
        else if (!std::strcmp(argv[i], "--chunk"))
            chunkCells = std::size_t(
                parseCount(argv[0], "--chunk", value(i)));
        else if (!std::strcmp(argv[i], "--hedge"))
            hedgeMs = unsigned(
                parseCount(argv[0], "--hedge", value(i), 3600000));
        else if (!std::strcmp(argv[i], "--worker-failures"))
            workerFailures = unsigned(parseCount(
                argv[0], "--worker-failures", value(i), UINT_MAX));
        else if (!std::strcmp(argv[i], "--cell-retries"))
            cellRetries = unsigned(parseCount(
                argv[0], "--cell-retries", value(i), UINT_MAX));
        else if (!std::strcmp(argv[i], "--probes"))
            probes = unsigned(
                parseCount(argv[0], "--probes", value(i), UINT_MAX));
        else if (!std::strcmp(argv[i], "--probe-base-ms"))
            probeBaseMs = unsigned(parseCount(
                argv[0], "--probe-base-ms", value(i), 3600000));
        else if (!std::strcmp(argv[i], "--backoff-seed")) {
            backoffSeed = parseCount(argv[0], "--backoff-seed",
                                     value(i));
            haveBackoffSeed = true;
        } else if (!std::strcmp(argv[i], "--worker-heartbeat-ms"))
            heartbeatMs = unsigned(parseCount(
                argv[0], "--worker-heartbeat-ms", value(i), 3600000));
        else if (!std::strcmp(argv[i], "--no-fallback"))
            noFallback = true;
        else if (!std::strcmp(argv[i], "--json"))
            jsonPath = value(i);
        else if (!std::strcmp(argv[i], "--stats-json"))
            statsJsonPath = value(i);
        else if (!std::strcmp(argv[i], "--trace-cache"))
            traceCacheDir = value(i);
        else if (!std::strcmp(argv[i], "--ckpt-cache"))
            ckptCacheDir = value(i);
        else if (!std::strcmp(argv[i], "--no-ckpt"))
            noCkpt = true;
        else if (!std::strcmp(argv[i], "--help") ||
                 !std::strcmp(argv[i], "-h")) {
            printCoordUsage(argv[0], stdout);
            return 0;
        } else {
            std::fprintf(stderr, "%s: unknown option '%s'\n", argv[0],
                         argv[i]);
            printCoordUsage(argv[0], stderr);
            return 2;
        }
    }

    if (specPath.empty()) {
        std::fprintf(stderr, "%s: --spec is required\n", argv[0]);
        printCoordUsage(argv[0], stderr);
        return 2;
    }
    const int modes =
        int(local) + int(!workerList.empty()) + int(spawnCount > 0);
    if (modes != 1) {
        std::fprintf(stderr,
                     "%s: pick exactly one of --workers, --spawn, "
                     "--local\n",
                     argv[0]);
        printCoordUsage(argv[0], stderr);
        return 2;
    }
    // A lease the heartbeats can never reset would expire every
    // chunk: reject the configuration instead of thrashing.
    if (!local && std::uint64_t(leaseSeconds) * 1000 <= heartbeatMs) {
        std::fprintf(stderr,
                     "%s: --lease %us must exceed the worker "
                     "heartbeat period (%ums)\n",
                     argv[0], leaseSeconds, heartbeatMs);
        return 2;
    }

    if (!traceCacheDir.empty())
        TraceCache::instance().setDirectory(traceCacheDir);
    if (noCkpt)
        CheckpointStore::instance().setEnabled(false);
    if (!ckptCacheDir.empty())
        CheckpointStore::instance().setDirectory(ckptCacheDir);

    SweepSpec spec;
    try {
        spec = loadSweepSpec(specPath);
        validateSweepSpec(spec);
    } catch (const SimError &e) {
        std::fprintf(stderr, "%s: --spec %s: %s\n", argv[0],
                     specPath.c_str(), e.what());
        return 2;
    }

    const auto writeMerged = [&](const std::vector<RunResult> &rs) {
        if (jsonPath.empty())
            return true;
        std::ofstream os(jsonPath, std::ios::binary);
        writeResultsJson(os, rs);
        if (!os) {
            std::fprintf(stderr, "%s: cannot write '%s'\n", argv[0],
                         jsonPath.c_str());
            return false;
        }
        std::printf("wrote %s\n", jsonPath.c_str());
        return true;
    };

    if (local) {
        // The reference path: same spec, same merge, one process.
        // Emits the results-only document so its bytes are directly
        // comparable (cmp(1)) with a distributed run's merge.
        ExpandedSweep ex;
        try {
            ex = expandSweep(spec);
        } catch (const SimError &e) {
            std::fprintf(stderr, "%s: %s\n", argv[0], e.what());
            return 2;
        }
        SweepRunner runner(jobs ? jobs : spec.jobs);
        armRunner(runner, spec);
        const std::vector<RunResult> results = runner.run(ex.jobs);
        printResultsTable(results, ex.labels);
        if (!writeMerged(results))
            return 1;
        return resultsExit(results);
    }

    std::vector<dist::LocalWorker> fleet;
    dist::CoordinatorConfig ccfg;
    if (spawnCount > 0) {
        std::vector<std::string> extra;
        if (!ckptCacheDir.empty()) {
            extra.push_back("--ckpt-cache");
            extra.push_back(ckptCacheDir);
        }
        if (heartbeatMs != 1000) {
            extra.push_back("--heartbeat-ms");
            extra.push_back(std::to_string(heartbeatMs));
        }
        try {
            fleet = dist::spawnLocalWorkers(
                workerBin.empty() ? defaultWorkerBin(argv[0])
                                  : workerBin,
                spawnCount, workerJobs, extra);
        } catch (const SimError &e) {
            std::fprintf(stderr, "%s: --spawn: %s\n", argv[0],
                         e.what());
            return 1;
        }
        for (const dist::LocalWorker &w : fleet) {
            dist::WorkerEndpoint ep;
            ep.port = w.port;
            ccfg.workers.push_back(std::move(ep));
        }
    } else {
        ccfg.workers = parseWorkerList(argv[0], workerList);
    }
    ccfg.ledgerPath = ledgerPath;
    ccfg.resume = resume;
    ccfg.leaseSeconds = leaseSeconds;
    ccfg.chunkCells = chunkCells;
    ccfg.hedgeDelayMs = hedgeMs;
    ccfg.maxWorkerFailures = workerFailures;
    ccfg.maxCellRetries = cellRetries;
    ccfg.quarantineProbes = probes;
    ccfg.probeBaseMs = probeBaseMs;
    ccfg.workerHeartbeatMs = heartbeatMs;
    ccfg.localFallback = !noFallback;
    if (haveBackoffSeed)
        ccfg.backoffSeed = backoffSeed;

    dist::SweepCoordinator coord(ccfg);
    int rc = 0;
    try {
        const std::vector<RunResult> results = coord.run(spec);
        const dist::CoordStats &st = coord.stats();
        std::printf("distributed sweep: %zu cells (%zu adopted, %zu "
                    "run, %zu in-process, %zu failed-by-fleet) "
                    "across %zu worker(s) in %.2f s — %.1f cells/s; "
                    "%zu chunk(s), %zu lease(s) expired, %zu "
                    "requeue(s), %zu hedge(s), %zu quarantine(s), "
                    "%zu readmission(s), %zu worker(s) died\n",
                    st.cellsTotal, st.cellsAdopted, st.cellsRun,
                    st.cellsFallback, st.cellsSynthFailed,
                    ccfg.workers.size(), st.wallSeconds,
                    st.cellsPerSecond(), st.chunksDispatched,
                    st.leasesExpired, st.requeues, st.hedges,
                    st.quarantines, st.readmissions, st.workersDead);
        printFleetTraceStats(ccfg.workers);
        if (!statsJsonPath.empty()) {
            std::ofstream os(statsJsonPath, std::ios::binary);
            dist::writeCoordStatsJson(os, st);
            if (!os) {
                std::fprintf(stderr, "%s: cannot write '%s'\n",
                             argv[0], statsJsonPath.c_str());
                rc = 1;
            }
        }
        if (!writeMerged(results))
            rc = 1;
        else if (rc == 0)
            rc = resultsExit(results);
    } catch (const SimError &e) {
        std::fprintf(stderr, "%s: %s\n", argv[0], e.what());
        rc = 1;
    }
    dist::stopLocalWorkers(fleet);
    return rc;
}
