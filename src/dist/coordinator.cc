#include "dist/coordinator.hh"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <sstream>
#include <thread>

#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include "common/artifact_file.hh"
#include "common/error.hh"
#include "common/export.hh"
#include "common/fault.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "common/random.hh"
#include "common/stats.hh"
#include "core/variant.hh"
#include "dist/ledger.hh"
#include "dist/wire.hh"
#include "service/http.hh"
#include "sim/export.hh"
#include "sim/sweep.hh"
#include "workload/checkpoint_store.hh"
#include "workload/compiled_trace.hh"
#include "workload/trace_cache.hh"

namespace elfsim {
namespace dist {

namespace {

/** Zeroed result for a cell the fleet could not complete — the same
 *  keep-going degradation SweepRunner applies to a crashing cell. */
RunResult
abandonedResult(const SweepJob &job, const std::string &what,
                unsigned attempts)
{
    RunResult r;
    r.workload = job.program ? job.program->name() : "?";
    r.variant = variantName(job.cfg.variant);
    r.status = JobStatus::Failed;
    r.error = what;
    r.attempts = attempts ? attempts : 1;
    return r;
}

/** Checkpoint files above this stay home: the worker's request-body
 *  cap is 16 MiB, and a checkpoint is an optimization, not data. */
constexpr std::uintmax_t kMaxCkptShipBytes = 8u << 20;

/** The ledger's worker id for cells the coordinator ran itself after
 *  losing the fleet. */
constexpr const char *kFallbackWorker = "local-fallback";

void
sleepMs(unsigned ms)
{
    if (ms)
        std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

/**
 * Decorrelated-jitter backoff (sleep in [base, prev*3], capped): the
 * retry schedule is drawn from a seeded per-worker Rng stream, so it
 * neither thunders in lockstep across workers nor varies between two
 * runs with the same seed.
 */
unsigned
nextBackoffMs(Rng &rng, unsigned prevMs, unsigned baseMs,
              unsigned capMs)
{
    const std::uint64_t lo = std::max(1u, baseMs);
    const std::uint64_t hi =
        std::max<std::uint64_t>(lo + 1, std::uint64_t(prevMs) * 3);
    const std::uint64_t pick = lo + rng.below(hi - lo);
    return unsigned(std::min<std::uint64_t>(pick, capMs));
}

} // namespace

void
writeCoordStatsJson(std::ostream &os, const CoordStats &s)
{
    stats::StatGroup dist("dist");
    dist.addCounter("cells_total", "cells in the grid") +=
        s.cellsTotal;
    dist.addCounter("cells_adopted", "cells adopted from the ledger") +=
        s.cellsAdopted;
    dist.addCounter("cells_run", "cells completed by the fleet") +=
        s.cellsRun;
    dist.addCounter("cells_fallback",
                    "cells finished in-process after fleet loss") +=
        s.cellsFallback;
    dist.addCounter("cells_synth_failed",
                    "cells degraded to failed results") +=
        s.cellsSynthFailed;
    dist.addCounter("chunks", "chunks dispatched") +=
        s.chunksDispatched;
    dist.addCounter("leases_expired", "leases expired") +=
        s.leasesExpired;
    dist.addCounter("requeues", "cells requeued after an expiry") +=
        s.requeues;
    dist.addCounter("hedges", "hedge chunks dispatched") += s.hedges;
    dist.addCounter("quarantines", "worker quarantine entries") +=
        s.quarantines;
    dist.addCounter("readmissions", "probation re-admissions") +=
        s.readmissions;
    dist.addCounter("connect_retries",
                    "reconnect attempts (backoff)") += s.connectRetries;
    dist.addCounter("artifact_retries", "artifact uploads retried") +=
        s.artifactRetries;
    dist.addCounter("workers_dead", "workers declared dead") +=
        s.workersDead;
    dist.addCounter("traces_shipped", "trace uploads") +=
        s.tracesShipped;
    dist.addCounter("ckpts_shipped", "checkpoint uploads") +=
        s.ckptsShipped;
    dist.addFormula("wall_seconds", "wall clock of the run",
                    [&s] { return s.wallSeconds; });
    dist.addFormula("cells_per_sec", "fleet throughput",
                    [&s] { return s.cellsPerSecond(); });

    JsonWriter w(os);
    w.beginObject();
    w.field("schema", "elfsim-coordstats-v1");
    w.key("dist");
    stats::writeJson(w, dist);
    w.endObject();
    os << '\n';
}

/** Everything one run() shares across its worker threads. */
struct SweepCoordinator::Fleet
{
    /** Worker life cycle: Alive -> Quarantined (probation probes) ->
     *  back to Alive on a healthy probe, or Dead when the budget runs
     *  out. */
    enum WorkerState
    {
        Alive,
        Quarantined,
        Dead,
    };

    /** One artifact staged for shipping (kept so probation
     *  re-admission can re-ship without recompiling). */
    struct TraceArtifact
    {
        std::string key;  ///< x-elfsim-key content hash (hexKey)
        std::string name; ///< display name
        std::vector<char> image;
    };
    struct CkptArtifact
    {
        std::string name;
        std::string bytes;
    };

    const SweepSpec *spec = nullptr;
    ExpandedSweep ex;
    std::vector<std::string> keys; ///< jobKey per global index

    std::vector<TraceArtifact> traceArts;
    std::vector<CkptArtifact> ckptArts;

    std::mutex mtx; ///< guards everything below + the ledger stream
    std::condition_variable cv;
    std::vector<RunResult> results;
    std::vector<char> done;
    std::vector<unsigned> attempts;  ///< lease expiries per cell
    std::vector<char> hedged;        ///< cell has a hedge in flight
    std::deque<std::vector<std::size_t>> chunks;
    std::size_t inflightChunks = 0;
    std::vector<unsigned> workerFailures;
    std::vector<int> workerState; ///< WorkerState per worker
    std::vector<std::vector<std::size_t>> currentChunk; ///< per worker
    CoordStats stats;

    std::ofstream ledger;
    bool journaling = false;

    void
    journalLine(const std::function<void(std::ostream &)> &write)
    {
        if (!journaling)
            return;
        write(ledger);
        ledger.flush();
    }

    /** Nothing queued and nothing in flight: the run is settling. */
    bool
    noWorkLeft() const
    {
        return chunks.empty() && inflightChunks == 0;
    }
};

SweepCoordinator::SweepCoordinator(CoordinatorConfig c)
    : cfg(std::move(c))
{
}

void
SweepCoordinator::shipArtifacts(Fleet &fleet)
{
    // Compile each distinct trace once, locally, and stage the image
    // — the fleet-wide compile count stays at one per distinct
    // program, and probation re-admission can re-ship from the staged
    // copy without recompiling. Sampled cells stage a capped prefix
    // (the batch warming kernel fast-forwards over it); their warm
    // state additionally stages as checkpoints below.
    std::map<std::uint64_t, std::pair<const Program *, InstCount>> want;
    bool anySampled = false;
    for (std::size_t i = 0; i < fleet.ex.jobs.size(); ++i) {
        if (fleet.done[i])
            continue;
        const SweepJob &job = fleet.ex.jobs[i];
        if (!job.program)
            continue;
        const InstCount count = traceBudget(job.opts);
        anySampled = anySampled || job.opts.sampled();
        want[CompiledTrace::key(*job.program, count)] = {job.program,
                                                         count};
    }

    if (TraceCache::instance().enabled()) {
        for (const auto &[key, pc] : want) {
            std::shared_ptr<const CompiledTrace> trace =
                TraceCache::instance().acquire(*pc.first, pc.second);
            if (!trace)
                continue;
            fleet.traceArts.push_back(Fleet::TraceArtifact{
                hexKey(trace->cacheKey()), pc.first->name(),
                trace->serialized()});
        }
    }

    // Checkpoints are best-effort: a worker without one fast-forwards.
    const std::string dir = CheckpointStore::instance().directory();
    if (anySampled && !dir.empty()) {
        std::error_code ec;
        for (const auto &entry :
             std::filesystem::directory_iterator(dir, ec)) {
            if (!entry.is_regular_file(ec) ||
                entry.path().extension() != ".eckpt")
                continue;
            if (entry.file_size(ec) > kMaxCkptShipBytes) {
                ELFSIM_WARN("checkpoint '%s' too large to ship; "
                            "workers will fast-forward",
                            entry.path().filename().c_str());
                continue;
            }
            std::ifstream in(entry.path(), std::ios::binary);
            std::ostringstream body;
            body << in.rdbuf();
            if (!in)
                continue;
            fleet.ckptArts.push_back(Fleet::CkptArtifact{
                entry.path().filename().string(), body.str()});
        }
    }

    for (std::size_t w = 0; w < cfg.workers.size(); ++w) {
        if (shipArtifactsToWorker(fleet, w))
            continue;
        // Staging failures quarantine rather than retire: the
        // worker's thread starts in the probation loop and re-ships
        // on a healthy probe.
        ELFSIM_WARN("worker %s quarantined during artifact staging",
                    cfg.workers[w].id().c_str());
        std::lock_guard<std::mutex> lk(fleet.mtx);
        fleet.workerState[w] = Fleet::Quarantined;
        ++fleet.stats.quarantines;
    }
}

bool
SweepCoordinator::shipArtifactsToWorker(Fleet &fleet, std::size_t w)
{
    const WorkerEndpoint &ep = cfg.workers[w];
    FaultInjector &inj = FaultInjector::instance();
    // A distinct jitter stream from the dispatch loop's, so upload
    // retries during probation do not perturb reconnect schedules.
    Rng rng(mix64(cfg.backoffSeed ^ 0xa27f, w));

    const auto post =
        [&](const char *path,
            const std::map<std::string, std::string> &headers,
            std::string body) -> int {
        if (inj.armed()) {
            if (inj.netRefuseConnect(w))
                throw IoError("connection refused (injected)");
            switch (inj.netEventFault(w)) {
              case NetEventFault::Drop:
                throw IoError(
                    "connection closed mid-upload (injected)");
              case NetEventFault::Timeout:
                throw IoError(
                    "receive timeout during upload (injected)");
              case NetEventFault::None:
                break;
            }
            if (inj.netCorruptArtifact(w) && !body.empty())
                body[body.size() / 2] ^= 0x20;
            sleepMs(inj.netSendDelayMs(w));
        }
        return service::httpFetch(ep.host, ep.port, "POST", path,
                                  body, headers)
            .status;
    };

    for (const Fleet::TraceArtifact &art : fleet.traceArts) {
        const std::map<std::string, std::string> headers = {
            {"x-elfsim-key", art.key},
            {"x-elfsim-name", art.name},
        };
        bool ok = false;
        unsigned delay = cfg.reconnectBaseMs;
        for (unsigned a = 0; a < cfg.artifactAttempts && !ok; ++a) {
            if (a > 0) {
                {
                    std::lock_guard<std::mutex> lk(fleet.mtx);
                    ++fleet.stats.artifactRetries;
                }
                sleepMs(delay);
                delay = nextBackoffMs(rng, delay, cfg.reconnectBaseMs,
                                      cfg.reconnectCapMs);
            }
            try {
                // A non-200 means the worker rejected the payload
                // (e.g. an injected corrupt body failed its checksum)
                // — the retry re-sends the intact staged image, so a
                // worker can never silently fall back to recompiling
                // every shard.
                const int status =
                    post("/artifact/trace", headers,
                         std::string(art.image.data(),
                                     art.image.size()));
                if (status == 200)
                    ok = true;
                else
                    ELFSIM_WARN("worker %s rejected trace '%s' "
                                "(HTTP %d)",
                                ep.id().c_str(), art.name.c_str(),
                                status);
            } catch (const SimError &e) {
                ELFSIM_WARN("trace ship to %s failed: %s",
                            ep.id().c_str(), e.what());
            }
        }
        if (!ok)
            return false;
        std::lock_guard<std::mutex> lk(fleet.mtx);
        ++fleet.stats.tracesShipped;
    }

    for (const Fleet::CkptArtifact &art : fleet.ckptArts) {
        const std::map<std::string, std::string> headers = {
            {"x-elfsim-name", art.name},
        };
        try {
            if (post("/artifact/ckpt", headers, art.bytes) == 200) {
                std::lock_guard<std::mutex> lk(fleet.mtx);
                ++fleet.stats.ckptsShipped;
            }
        } catch (const SimError &e) {
            ELFSIM_WARN("checkpoint ship to %s failed: %s",
                        ep.id().c_str(), e.what());
        }
    }
    return true;
}

int
SweepCoordinator::connectWithBackoff(Fleet &fleet, std::size_t w,
                                     Rng &rng)
{
    const WorkerEndpoint &ep = cfg.workers[w];
    FaultInjector &inj = FaultInjector::instance();
    unsigned delay = cfg.reconnectBaseMs;
    for (unsigned a = 0;; ++a) {
        if (!(inj.armed() && inj.netRefuseConnect(w))) {
            try {
                return service::connectTcp(ep.host, ep.port);
            } catch (const SimError &e) {
                ELFSIM_WARN("worker %s unreachable: %s",
                            ep.id().c_str(), e.what());
            }
        } else {
            ELFSIM_WARN("worker %s unreachable: connection refused "
                        "(injected)",
                        ep.id().c_str());
        }
        if (a + 1 >= cfg.connectAttempts)
            return -1;
        {
            std::lock_guard<std::mutex> lk(fleet.mtx);
            ++fleet.stats.connectRetries;
        }
        sleepMs(delay);
        delay = nextBackoffMs(rng, delay, cfg.reconnectBaseMs,
                              cfg.reconnectCapMs);
    }
}

bool
SweepCoordinator::runChunk(Fleet &fleet, std::size_t w,
                           const std::vector<std::size_t> &chunk,
                           Rng &rng)
{
    const WorkerEndpoint &ep = cfg.workers[w];
    const int fd = connectWithBackoff(fleet, w, rng);
    if (fd < 0)
        return false;
    // The lease timer IS the socket's receive timeout: a worker that
    // produces neither results nor heartbeats for leaseSeconds is
    // dead, and the blocked read fails with EAGAIN.
    struct timeval tv = {long(cfg.leaseSeconds), 0};
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));

    {
        FaultInjector &inj = FaultInjector::instance();
        if (inj.armed())
            sleepMs(inj.netSendDelayMs(w));
    }
    if (!service::writeHttpRequest(
            fd, ep.host, "POST", "/shard",
            writeShardRequest(*fleet.spec, chunk),
            {{"Content-Type", "application/json"}})) {
        ::close(fd);
        return false;
    }

    int status = 0;
    std::map<std::string, std::string> headers;
    std::string rest, err;
    if (!service::readHttpResponseHead(fd, status, headers, rest,
                                       err)) {
        ELFSIM_WARN("worker %s: %s", ep.id().c_str(), err.c_str());
        ::close(fd);
        return false;
    }
    if (status != 200) {
        ELFSIM_WARN("worker %s refused shard: HTTP %d",
                    ep.id().c_str(), status);
        ::close(fd);
        return false;
    }

    std::vector<char> inChunk(fleet.ex.jobs.size(), 0);
    for (std::size_t i : chunk)
        inChunk[i] = 1;

    ShardStream stream(fd, std::move(rest), w);
    std::size_t got = 0;
    bool sawDone = false;
    std::string line;
    while (stream.nextLine(line)) {
        ShardLine sl;
        try {
            sl = parseShardLine(line);
        } catch (const SimError &e) {
            ELFSIM_WARN("worker %s: bad stream line: %s",
                        ep.id().c_str(), e.what());
            break;
        }
        if (sl.kind == ShardLine::Kind::Heartbeat)
            continue;
        if (sl.kind == ShardLine::Kind::Done) {
            sawDone = true;
            break;
        }
        const std::size_t i = sl.entry.index;
        if (i >= fleet.ex.jobs.size() || !inChunk[i] ||
            sl.entry.key != fleet.keys[i]) {
            ELFSIM_WARN("worker %s: result for cell it was not "
                        "leased (index %zu)",
                        ep.id().c_str(), i);
            break;
        }
        std::lock_guard<std::mutex> lk(fleet.mtx);
        if (!fleet.done[i]) {
            fleet.results[i] = std::move(sl.entry.result);
            fleet.done[i] = 1;
            ++fleet.stats.cellsRun;
            fleet.journalLine([&](std::ostream &os) {
                writeManifestLine(os, ManifestEntry{i, fleet.keys[i],
                                                    fleet.results[i]});
            });
        }
        ++got;
    }
    ::close(fd);
    if (stream.failed())
        ELFSIM_WARN("worker %s: %s", ep.id().c_str(),
                    stream.error().c_str());
    return sawDone && got == chunk.size();
}

std::vector<std::size_t>
SweepCoordinator::pickHedge(Fleet &fleet, std::size_t w)
{
    // Duplicate the lowest-indexed busy worker's in-flight cells that
    // are neither done nor already hedged. Scanning in worker order
    // keeps hedge placement deterministic for a given interleaving.
    for (std::size_t v = 0; v < cfg.workers.size(); ++v) {
        if (v == w || fleet.currentChunk[v].empty())
            continue;
        std::vector<std::size_t> cells;
        for (std::size_t i : fleet.currentChunk[v])
            if (!fleet.done[i] && !fleet.hedged[i])
                cells.push_back(i);
        if (cells.empty())
            continue;
        for (std::size_t i : cells)
            fleet.hedged[i] = 1;
        return cells;
    }
    return {};
}

bool
SweepCoordinator::quarantineLoop(Fleet &fleet, std::size_t w, Rng &rng)
{
    const std::string id = cfg.workers[w].id();
    FaultInjector &inj = FaultInjector::instance();
    unsigned delay = cfg.probeBaseMs;
    for (unsigned probe = 0; probe < cfg.quarantineProbes; ++probe) {
        {
            // Sleep between probes, but let run completion cut the
            // probation short: a quarantined worker with nothing left
            // to help with just leaves.
            std::unique_lock<std::mutex> lk(fleet.mtx);
            if (fleet.noWorkLeft())
                return false;
            fleet.cv.wait_for(lk, std::chrono::milliseconds(delay),
                              [&] { return fleet.noWorkLeft(); });
            if (fleet.noWorkLeft())
                return false;
        }
        delay = nextBackoffMs(rng, delay, cfg.probeBaseMs,
                              cfg.probeCapMs);
        bool healthy = false;
        if (!(inj.armed() && inj.netRefuseConnect(w))) {
            try {
                healthy = service::httpFetch(cfg.workers[w].host,
                                             cfg.workers[w].port,
                                             "GET", "/healthz", "", {})
                              .status == 200;
            } catch (const SimError &) {
            }
        }
        if (!healthy)
            continue;
        // Healthy again. Re-ship artifacts first (the worker may have
        // restarted with a cold cache); a failed re-ship keeps it in
        // probation rather than re-admitting a worker that would
        // recompile every shard.
        if (!shipArtifactsToWorker(fleet, w))
            continue;
        {
            std::lock_guard<std::mutex> lk(fleet.mtx);
            fleet.workerState[w] = Fleet::Alive;
            fleet.workerFailures[w] = 0;
            ++fleet.stats.readmissions;
        }
        ELFSIM_WARN("worker %s re-admitted after probation",
                    id.c_str());
        return true;
    }
    {
        std::lock_guard<std::mutex> lk(fleet.mtx);
        fleet.workerState[w] = Fleet::Dead;
        ++fleet.stats.workersDead;
    }
    fleet.cv.notify_all();
    ELFSIM_WARN("worker %s dead after %u failed probes", id.c_str(),
                cfg.quarantineProbes);
    return false;
}

void
SweepCoordinator::workerLoop(Fleet &fleet, std::size_t w)
{
    const std::string id = cfg.workers[w].id();
    Rng rng(mix64(cfg.backoffSeed, w));

    {
        std::unique_lock<std::mutex> lk(fleet.mtx);
        const bool quarantined =
            fleet.workerState[w] == Fleet::Quarantined;
        lk.unlock();
        // A worker quarantined during artifact staging starts life in
        // probation; it joins the fleet only after a healthy probe.
        if (quarantined && !quarantineLoop(fleet, w, rng))
            return;
    }

    for (;;) {
        std::vector<std::size_t> chunk;
        bool hedge = false;
        {
            std::unique_lock<std::mutex> lk(fleet.mtx);
            for (;;) {
                if (!fleet.chunks.empty()) {
                    chunk = std::move(fleet.chunks.front());
                    fleet.chunks.pop_front();
                    // A requeued cell can complete in the meantime (a
                    // winning hedge); dispatching it again would only
                    // burn worker time.
                    chunk.erase(std::remove_if(
                                    chunk.begin(), chunk.end(),
                                    [&](std::size_t i)
                                    { return bool(fleet.done[i]); }),
                                chunk.end());
                    if (chunk.empty())
                        continue;
                    break;
                }
                if (fleet.inflightChunks == 0)
                    return;
                // The queue is dry but another worker's chunk is
                // still in flight — a failure there requeues cells
                // this worker must be around to adopt (the
                // reassignment path of a killed worker's leases).
                if (cfg.hedgeDelayMs == 0) {
                    fleet.cv.wait(lk, [&] {
                        return !fleet.chunks.empty() ||
                               fleet.inflightChunks == 0;
                    });
                    continue;
                }
                // Hedged dispatch: give the fleet hedgeDelayMs to
                // produce a queue entry, then duplicate a straggler's
                // cells (first completion wins; done[] dedupes).
                fleet.cv.wait_for(
                    lk, std::chrono::milliseconds(cfg.hedgeDelayMs),
                    [&] {
                        return !fleet.chunks.empty() ||
                               fleet.inflightChunks == 0;
                    });
                if (!fleet.chunks.empty() ||
                    fleet.inflightChunks == 0)
                    continue;
                chunk = pickHedge(fleet, w);
                if (chunk.empty())
                    continue;
                hedge = true;
                break;
            }
            ++fleet.inflightChunks;
            if (hedge)
                ++fleet.stats.hedges;
            else
                ++fleet.stats.chunksDispatched;
            fleet.currentChunk[w] = chunk;
            for (std::size_t i : chunk) {
                LeaseEvent e;
                e.kind = LeaseEvent::Kind::Lease;
                e.index = i;
                e.key = fleet.keys[i];
                e.worker = id;
                e.leaseSeconds = cfg.leaseSeconds;
                e.hedge = hedge;
                fleet.journalLine([&](std::ostream &os)
                                  { writeLeaseLine(os, e); });
            }
            if (leaseObserver)
                leaseObserver(chunk, id);
        }

        const bool ok = runChunk(fleet, w, chunk, rng);

        bool quarantined = false;
        {
            std::lock_guard<std::mutex> lk(fleet.mtx);
            fleet.currentChunk[w].clear();
            std::vector<std::size_t> requeue;
            for (std::size_t i : chunk) {
                if (hedge)
                    fleet.hedged[i] = 0;
                if (fleet.done[i])
                    continue;
                LeaseEvent e;
                e.kind = LeaseEvent::Kind::Expire;
                e.index = i;
                e.worker = id;
                e.hedge = hedge;
                fleet.journalLine([&](std::ostream &os)
                                  { writeLeaseLine(os, e); });
                // A losing or failed hedge expires quietly: the
                // primary lease still owns the cell, so nothing is
                // requeued and the cell's retry budget is untouched.
                if (hedge)
                    continue;
                ++fleet.stats.leasesExpired;
                if (++fleet.attempts[i] > cfg.maxCellRetries) {
                    fleet.results[i] = abandonedResult(
                        fleet.ex.jobs[i],
                        errorf("distributed cell abandoned after %u "
                               "expired leases",
                               fleet.attempts[i]),
                        fleet.attempts[i]);
                    fleet.done[i] = 1;
                    ++fleet.stats.cellsSynthFailed;
                    fleet.journalLine([&](std::ostream &os) {
                        writeManifestLine(
                            os, ManifestEntry{i, fleet.keys[i],
                                              fleet.results[i]});
                    });
                } else {
                    requeue.push_back(i);
                    ++fleet.stats.requeues;
                }
            }
            if (!requeue.empty())
                fleet.chunks.push_back(std::move(requeue));
            --fleet.inflightChunks;
            if (!ok && ++fleet.workerFailures[w] >=
                           cfg.maxWorkerFailures) {
                fleet.workerState[w] = Fleet::Quarantined;
                ++fleet.stats.quarantines;
                quarantined = true;
            }
        }
        fleet.cv.notify_all();
        if (quarantined) {
            ELFSIM_WARN("worker %s quarantined after %u failed "
                        "leases",
                        id.c_str(), cfg.maxWorkerFailures);
            if (!quarantineLoop(fleet, w, rng))
                return;
        }
    }
}

void
SweepCoordinator::runFallback(Fleet &fleet,
                              const std::vector<std::size_t> &pending)
{
    std::vector<std::size_t> remaining;
    for (std::size_t i : pending)
        if (!fleet.done[i])
            remaining.push_back(i);
    if (remaining.empty())
        return;
    ELFSIM_WARN("fleet lost; finishing %zu cells in-process",
                remaining.size());

    for (std::size_t i : remaining) {
        LeaseEvent e;
        e.kind = LeaseEvent::Kind::Lease;
        e.index = i;
        e.key = fleet.keys[i];
        e.worker = kFallbackWorker;
        e.leaseSeconds = cfg.leaseSeconds;
        fleet.journalLine([&](std::ostream &os)
                          { writeLeaseLine(os, e); });
    }

    // The same subset-run path a worker would use, with the same
    // policy shape (journaling stripped): global indices, seeds and
    // RunResult bytes match a --local run exactly.
    SweepRunner runner(fleet.spec->jobs);
    SweepPolicy pol = fleet.spec->policy;
    pol.manifestPath.clear();
    pol.resume = false;
    runner.setPolicy(std::move(pol));
    runner.setBaseSeed(fleet.spec->baseSeed);
    runner.setCellObserver([&](std::size_t i, const RunResult &r) {
        std::lock_guard<std::mutex> lk(fleet.mtx);
        fleet.journalLine([&](std::ostream &os) {
            writeManifestLine(os, ManifestEntry{i, fleet.keys[i], r});
        });
    });
    std::vector<RunResult> rs = runner.run(fleet.ex.jobs, remaining);
    for (std::size_t i : remaining) {
        fleet.results[i] = std::move(rs[i]);
        fleet.done[i] = 1;
        ++fleet.stats.cellsFallback;
    }
}

std::vector<RunResult>
SweepCoordinator::run(const SweepSpec &spec)
{
    if (cfg.workers.empty())
        throw ConfigError("distributed sweep needs at least 1 worker");
    if (std::uint64_t(cfg.leaseSeconds) * 1000 <=
        cfg.workerHeartbeatMs)
        throw ConfigError(errorf(
            "lease (%us) must exceed the worker heartbeat period "
            "(%ums): heartbeats could never reset the lease timer",
            cfg.leaseSeconds, cfg.workerHeartbeatMs));
    validateSweepSpec(spec);

    Fleet fleet;
    fleet.spec = &spec;
    fleet.ex = expandSweep(spec);
    const std::size_t n = fleet.ex.jobs.size();
    fleet.keys.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
        fleet.keys.push_back(
            sweepJobKey(fleet.ex.jobs[i], i, spec.baseSeed));
    fleet.results.resize(n);
    fleet.done.assign(n, 0);
    fleet.attempts.assign(n, 0);
    fleet.hedged.assign(n, 0);
    fleet.workerFailures.assign(cfg.workers.size(), 0);
    fleet.workerState.assign(cfg.workers.size(), Fleet::Alive);
    fleet.currentChunk.assign(cfg.workers.size(), {});
    fleet.stats.cellsTotal = n;

    // Adopt the ledger's completed cells (a crashed coordinator's
    // survivors); index + jobKey must match, exactly like a manifest
    // resume, so a stale ledger never contaminates results.
    if (cfg.resume && !cfg.ledgerPath.empty()) {
        std::ifstream in(cfg.ledgerPath);
        if (in) {
            LedgerState state = readLedger(in);
            for (ManifestEntry &e : state.completed) {
                if (e.index >= n || e.key != fleet.keys[e.index] ||
                    !e.result.ok())
                    continue;
                fleet.results[e.index] = std::move(e.result);
                fleet.done[e.index] = 1;
                ++fleet.stats.cellsAdopted;
            }
        }
    }
    if (!cfg.ledgerPath.empty()) {
        fleet.ledger.open(cfg.ledgerPath,
                          cfg.resume ? std::ios::out | std::ios::app
                                     : std::ios::out | std::ios::trunc);
        if (!fleet.ledger)
            throw IoError(errorf("cannot open ledger '%s'",
                                 cfg.ledgerPath.c_str()));
        fleet.journaling = true;
    }

    std::vector<std::size_t> pending;
    for (std::size_t i = 0; i < n; ++i)
        if (!fleet.done[i])
            pending.push_back(i);
    if (pending.empty()) {
        lastStats = fleet.stats;
        return std::move(fleet.results);
    }

    const auto t0 = std::chrono::steady_clock::now();
    shipArtifacts(fleet);

    std::size_t alive = 0;
    for (int s : fleet.workerState)
        alive += s == Fleet::Alive ? 1 : 0;
    if (alive == 0 && !cfg.localFallback)
        throw IoError("every worker failed artifact staging; is the "
                      "fleet up (elfsimd --worker)?");

    std::size_t chunkSize = cfg.chunkCells;
    if (chunkSize == 0)
        chunkSize = std::max<std::size_t>(
            1, pending.size() / (4 * std::max<std::size_t>(1, alive)));
    for (std::size_t at = 0; at < pending.size(); at += chunkSize)
        fleet.chunks.emplace_back(
            pending.begin() + std::ptrdiff_t(at),
            pending.begin() +
                std::ptrdiff_t(
                    std::min(at + chunkSize, pending.size())));

    // Quarantined workers get a thread too: theirs starts in the
    // probation loop and joins the fleet on a healthy probe.
    std::vector<std::thread> threads;
    for (std::size_t w = 0; w < cfg.workers.size(); ++w)
        threads.emplace_back(&SweepCoordinator::workerLoop, this,
                             std::ref(fleet), w);
    for (std::thread &t : threads)
        t.join();

    // Whatever is left had no live worker to run it: finish it
    // in-process (byte-identical to --local) or degrade it.
    if (cfg.localFallback) {
        runFallback(fleet, pending);
    } else {
        for (std::size_t i : pending) {
            if (fleet.done[i])
                continue;
            fleet.results[i] = abandonedResult(
                fleet.ex.jobs[i],
                "no live worker (fleet died before this cell ran)",
                fleet.attempts[i]);
            fleet.done[i] = 1;
            ++fleet.stats.cellsSynthFailed;
        }
    }

    fleet.stats.wallSeconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      t0)
            .count();
    lastStats = fleet.stats;

    if (fleet.stats.cellsRun == 0 && fleet.stats.cellsFallback == 0 &&
        !cfg.localFallback)
        throw IoError("no worker completed any cell; is the fleet up "
                      "(elfsimd --worker)?");
    return std::move(fleet.results);
}

} // namespace dist
} // namespace elfsim
