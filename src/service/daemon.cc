#include "service/daemon.hh"

#include <cerrno>
#include <chrono>
#include <cstring>
#include <map>
#include <sstream>
#include <utility>

#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include "common/artifact_file.hh"
#include "common/error.hh"
#include "common/export.hh"
#include "common/logging.hh"
#include "dist/wire.hh"
#include "service/http.hh"
#include "sim/export.hh"
#include "workload/checkpoint_store.hh"
#include "workload/compiled_trace.hh"

namespace elfsim {
namespace service {

namespace {

/** A handler blocked on a silent client must not wedge the daemon
 *  forever: requests that take longer than this to arrive fail. */
constexpr long kRequestTimeoutSec = 10;

/** Has the peer torn the connection down? Only a hard error counts:
 *  an orderly FIN (recv == 0) is indistinguishable from the common
 *  request/response idiom of shutdown(SHUT_WR) after sending the
 *  request, where the client's read side is still open and waiting
 *  for the stream. Genuinely dead clients are caught by the failed
 *  chunk-write path, which raises the request's cancel flag. */
bool
peerGone(int fd)
{
    char b;
    const ssize_t n = ::recv(fd, &b, 1, MSG_PEEK | MSG_DONTWAIT);
    return n < 0 && (errno == ECONNRESET || errno == EPIPE);
}

} // namespace

SweepService::SweepService(ServiceConfig c)
    : cfg(std::move(c)), runner(cfg.jobs)
{
}

SweepService::~SweepService()
{
    stop();
}

void
SweepService::start()
{
    const int fd = listenTcp(cfg.host, cfg.port);
    boundPort_ = service::boundPort(fd);
    listenFd.store(fd, std::memory_order_release);
    stopping.store(false, std::memory_order_release);
    acceptThread = std::thread(&SweepService::acceptLoop, this);
    executorThread = std::thread(&SweepService::executorLoop, this);
}

void
SweepService::stop()
{
    if (stopping.exchange(true, std::memory_order_acq_rel))
        return;
    // Closing the listening socket unblocks accept().
    const int lfd = listenFd.exchange(-1, std::memory_order_acq_rel);
    if (lfd >= 0) {
        ::shutdown(lfd, SHUT_RDWR);
        ::close(lfd);
    }
    if (acceptThread.joinable())
        acceptThread.join();
    // Wait out in-flight connection handlers (they are quick: parse
    // and enqueue); they hold raw `this`.
    while (activeHandlers.load(std::memory_order_acquire) > 0)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    {
        // Cancel the sweep the executor is running right now, if any.
        std::lock_guard<std::mutex> lk(queueMtx);
        if (currentCancel)
            currentCancel->store(true, std::memory_order_release);
    }
    queueCv.notify_all();
    if (executorThread.joinable())
        executorThread.join();
    // Turn away everything still queued.
    std::deque<Pending> leftovers;
    {
        std::lock_guard<std::mutex> lk(queueMtx);
        leftovers.swap(queue);
    }
    for (Pending &p : leftovers) {
        writeHttpResponse(p.fd, 503, "Service Unavailable",
                          "text/plain", "shutting down\n");
        ::close(p.fd);
    }
}

void
SweepService::acceptLoop()
{
    while (!stopping.load(std::memory_order_acquire)) {
        const int lfd = listenFd.load(std::memory_order_acquire);
        if (lfd < 0)
            break;
        const int fd = ::accept(lfd, nullptr, nullptr);
        if (fd < 0) {
            if (errno == EINTR)
                continue;
            break; // listening socket closed by stop()
        }
        struct timeval rcv = {kRequestTimeoutSec, 0};
        ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &rcv, sizeof(rcv));
        // A client that stops *reading* must not wedge the daemon:
        // chunk writes happen on the executor thread, so a blocked
        // send() would stall every queued sweep. A send stalled past
        // cfg.sendTimeoutSec fails; the failed-write path raises the
        // request's cancel flag and the sweep degrades to cancelled.
        struct timeval snd = {cfg.sendTimeoutSec, 0};
        ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &snd, sizeof(snd));
        activeHandlers.fetch_add(1, std::memory_order_acq_rel);
        std::thread([this, fd] {
            handleConnection(fd);
            activeHandlers.fetch_sub(1, std::memory_order_acq_rel);
        }).detach();
    }
}

void
SweepService::handleConnection(int fd)
{
    HttpRequest req;
    std::string err;
    if (!readHttpRequest(fd, req, err)) {
        badRequests.fetch_add(1, std::memory_order_relaxed);
        writeHttpResponse(fd, 400, "Bad Request", "text/plain",
                          err + "\n");
        ::close(fd);
        return;
    }
    requests.fetch_add(1, std::memory_order_relaxed);

    if (req.method == "GET" && req.path == "/healthz") {
        writeHttpResponse(fd, 200, "OK", "text/plain", "ok\n");
        ::close(fd);
        return;
    }
    if (req.method == "GET" && req.path == "/stats") {
        writeHttpResponse(fd, 200, "OK", "application/json",
                          statsJson());
        ::close(fd);
        return;
    }
    if (req.method == "POST" &&
        (req.path == "/sweep" || req.path == "/shard")) {
        if (req.path == "/shard" && !cfg.worker) {
            badRequests.fetch_add(1, std::memory_order_relaxed);
            writeHttpResponse(fd, 403, "Forbidden", "text/plain",
                              "not a worker (start with --worker)\n");
            ::close(fd);
            return;
        }
        Pending p;
        try {
            if (req.path == "/shard") {
                dist::ShardRequest sr =
                    dist::parseShardRequest(req.body);
                p.spec = std::move(sr.spec);
                p.cells = std::move(sr.cells);
                p.shard = true;
                if (p.cells.empty())
                    throw ConfigError("shard request selects no cells");
            } else {
                p.spec = parseSweepSpec(std::string_view(req.body));
            }
            validateSweepSpec(p.spec);
        } catch (const SimError &e) {
            badRequests.fetch_add(1, std::memory_order_relaxed);
            writeHttpResponse(fd, 400, "Bad Request", "text/plain",
                              std::string(e.what()) + "\n");
            ::close(fd);
            return;
        }
        // The request's own policy applies, minus journaling:
        // manifests and resume are CLI-side concerns, and a remote
        // spec must not be able to scribble files onto the server (for
        // /shard the stream itself is the coordinator's journal).
        p.spec.policy.manifestPath.clear();
        p.spec.policy.resume = false;
        p.fd = fd;
        p.cancel = std::make_shared<std::atomic<bool>>(false);
        p.spec.policy.cancelFlag = p.cancel;
        {
            std::lock_guard<std::mutex> lk(queueMtx);
            if (stopping.load(std::memory_order_acquire)) {
                writeHttpResponse(fd, 503, "Service Unavailable",
                                  "text/plain", "shutting down\n");
                ::close(fd);
                return;
            }
            queue.push_back(std::move(p)); // fd ownership moves too
        }
        queueCv.notify_one();
        return;
    }
    if (req.method == "POST" &&
        (req.path == "/artifact/trace" || req.path == "/artifact/ckpt")) {
        if (!cfg.worker) {
            badRequests.fetch_add(1, std::memory_order_relaxed);
            writeHttpResponse(fd, 403, "Forbidden", "text/plain",
                              "not a worker (start with --worker)\n");
            ::close(fd);
            return;
        }
        handleArtifact(fd, req);
        return;
    }

    badRequests.fetch_add(1, std::memory_order_relaxed);
    writeHttpResponse(fd, 404, "Not Found", "text/plain",
                      "unknown endpoint\n");
    ::close(fd);
}

void
SweepService::handleArtifact(int fd, const HttpRequest &req)
{
    // Artifact installs run inline on the handler thread: they only
    // validate bytes and touch caches, never simulate, so they must
    // not queue behind a long sweep — the coordinator ships artifacts
    // *before* dispatching shards and wants the acknowledgment now.
    const auto reject = [&](const std::string &why) {
        badRequests.fetch_add(1, std::memory_order_relaxed);
        writeHttpResponse(fd, 400, "Bad Request", "text/plain",
                          why + "\n");
        ::close(fd);
    };

    if (req.path == "/artifact/trace") {
        const auto keyIt = req.headers.find("x-elfsim-key");
        std::uint64_t key = 0;
        if (keyIt == req.headers.end() ||
            !parseHexKey(keyIt->second, key))
            return reject("missing or malformed x-elfsim-key header");
        const auto nameIt = req.headers.find("x-elfsim-name");
        const std::string what = errorf(
            "shipped trace artifact '%s'",
            nameIt != req.headers.end() ? nameIt->second.c_str()
                                        : "?");
        try {
            std::vector<char> image(req.body.begin(), req.body.end());
            TraceCache::instance().install(
                CompiledTrace::loadBytes(std::move(image), key, what));
        } catch (const SimError &e) {
            // Unlike a corrupt on-disk cache entry (demoted to a
            // recompile), a corrupt *upload* is the coordinator's
            // problem: installing nothing silently would turn the
            // one-compile-per-fleet guarantee into a quiet recompile.
            return reject(e.what());
        }
        artifacts.fetch_add(1, std::memory_order_relaxed);
        writeHttpResponse(fd, 200, "OK", "text/plain", "installed\n");
        ::close(fd);
        return;
    }

    // /artifact/ckpt: the body is dropped into the checkpoint
    // directory verbatim; CheckpointStore's own load path validates
    // magic/key/checksum on use (any defect demotes to fast-forward).
    const std::string dir = CheckpointStore::instance().directory();
    if (dir.empty())
        return reject("no checkpoint directory configured "
                      "(start the worker with --ckpt-cache)");
    const auto nameIt = req.headers.find("x-elfsim-name");
    if (nameIt == req.headers.end())
        return reject("missing x-elfsim-name header");
    const std::string name = sanitizedName(nameIt->second);
    if (name.empty())
        return reject("empty artifact name");
    std::string err;
    if (!writeFileAtomic(dir + "/" + name, {req.body}, err))
        return reject(err);
    artifacts.fetch_add(1, std::memory_order_relaxed);
    writeHttpResponse(fd, 200, "OK", "text/plain", "installed\n");
    ::close(fd);
}

void
SweepService::executorLoop()
{
    for (;;) {
        Pending p;
        {
            std::unique_lock<std::mutex> lk(queueMtx);
            queueCv.wait(lk, [this] {
                return !queue.empty() ||
                       stopping.load(std::memory_order_acquire);
            });
            if (queue.empty())
                return; // stopping; stop() flushes leftovers
            p = std::move(queue.front());
            queue.pop_front();
            currentCancel = p.cancel;
        }
        if (p.shard)
            executeShard(std::move(p));
        else
            executeSweep(std::move(p));
        {
            std::lock_guard<std::mutex> lk(queueMtx);
            currentCancel.reset();
        }
        if (stopping.load(std::memory_order_acquire))
            return;
    }
}

void
SweepService::executeSweep(Pending req)
{
    // The client may have hung up while queued; don't burn a sweep on
    // a stream nobody reads.
    if (peerGone(req.fd)) {
        ::close(req.fd);
        return;
    }

    ExpandedSweep ex;
    try {
        ex = expandSweep(req.spec);
    } catch (const SimError &e) {
        // validateSweepSpec passed at enqueue time, so this is rare
        // (e.g. a workload generator failure) — still pre-stream, so
        // a clean error response is possible.
        badRequests.fetch_add(1, std::memory_order_relaxed);
        writeHttpResponse(req.fd, 400, "Bad Request", "text/plain",
                          std::string(e.what()) + "\n");
        ::close(req.fd);
        return;
    }

    runner.setPolicy(req.spec.policy);
    runner.setBaseSeed(req.spec.baseSeed);

    ChunkedResponse stream(req.fd);
    stream.header(200, "OK", "application/json");

    // Completed cells arrive in completion order; buffer them and
    // release the in-order prefix, so the accumulated stream is byte-
    // identical to writeResultsJson() over the merged results.
    std::ostringstream buf;
    ResultsStreamWriter writer(buf);
    std::mutex streamMtx;
    std::map<std::size_t, RunResult> held;
    std::size_t next = 0;

    const auto flushChunk = [&] {
        std::string out = buf.str();
        if (out.empty())
            return;
        buf.str(std::string());
        if (!stream.write(out))
            req.cancel->store(true, std::memory_order_release);
    };

    // The observer captures this frame's locals; it must be detached
    // before they go out of scope on *every* path, including a throw
    // from run() below.
    struct ObserverGuard
    {
        SweepService &svc;
        ~ObserverGuard()
        {
            svc.runner.setCellObserver(nullptr);
            svc.inflightCells.store(0, std::memory_order_release);
        }
    } observerGuard{*this};

    inflightCells.store(ex.jobs.size(), std::memory_order_release);
    runner.setCellObserver([&](std::size_t i, const RunResult &r) {
        std::lock_guard<std::mutex> lk(streamMtx);
        inflightCells.fetch_sub(1, std::memory_order_acq_rel);
        held.emplace(i, r);
        while (!held.empty() && held.begin()->first == next) {
            writer.add(held.begin()->second);
            held.erase(held.begin());
            ++next;
        }
        flushChunk();
    });

    try {
        runner.run(ex.jobs);
    } catch (const std::exception &e) {
        // Keep-going mode degrades per-cell failures, but pre-run
        // machinery (trace compilation, pool setup) can still throw.
        // The stream is already open, so no clean error response is
        // possible — truncate it (the client sees a framing error)
        // and keep the daemon alive for the next request.
        ELFSIM_WARN("sweep aborted before completion: %s", e.what());
        cellsFailed.fetch_add(1, std::memory_order_relaxed);
        ::close(req.fd);
        return;
    }

    {
        std::lock_guard<std::mutex> lk(streamMtx);
        writer.finish();
        flushChunk();
    }
    stream.finish();
    ::close(req.fd);

    for (const RunResult &r : runner.results()) {
        if (r.ok())
            cellsOk.fetch_add(1, std::memory_order_relaxed);
        else if (r.status == JobStatus::Cancelled)
            cellsCancelled.fetch_add(1, std::memory_order_relaxed);
        else
            cellsFailed.fetch_add(1, std::memory_order_relaxed);
    }
    sweeps.fetch_add(1, std::memory_order_relaxed);
    const SweepTiming &t = runner.timing();
    lastCellsPerSec.store(
        t.wallSeconds > 0 ? double(t.jobs) / t.wallSeconds : 0,
        std::memory_order_relaxed);
}

const ExpandedSweep &
SweepService::expandShardSpec(const SweepSpec &spec)
{
    std::ostringstream os;
    writeSweepSpec(os, spec);
    std::string text = os.str();
    if (text != cachedSpecText_) {
        cachedEx_ = expandSweep(spec);
        cachedSpecText_ = std::move(text);
    }
    return cachedEx_;
}

void
SweepService::executeShard(Pending req)
{
    if (peerGone(req.fd)) {
        ::close(req.fd);
        return;
    }

    const ExpandedSweep *ex = nullptr;
    try {
        ex = &expandShardSpec(req.spec);
        std::vector<char> seen(ex->jobs.size(), 0);
        for (std::size_t i : req.cells) {
            if (i >= ex->jobs.size())
                throw ConfigError(errorf(
                    "shard cell %zu out of range (grid has %zu)", i,
                    ex->jobs.size()));
            if (seen[i])
                throw ConfigError(
                    errorf("shard cell %zu selected twice", i));
            seen[i] = 1;
        }
    } catch (const SimError &e) {
        badRequests.fetch_add(1, std::memory_order_relaxed);
        writeHttpResponse(req.fd, 400, "Bad Request", "text/plain",
                          std::string(e.what()) + "\n");
        ::close(req.fd);
        return;
    }

    runner.setPolicy(req.spec.policy);
    runner.setBaseSeed(req.spec.baseSeed);

    ChunkedResponse stream(req.fd);
    std::mutex streamMtx;
    stream.header(200, "OK", "application/x-ndjson");

    // Unlike /sweep there is no in-order buffering: every line is
    // self-describing (global index + key), the coordinator does the
    // merge. Streaming in completion order is what lets it journal a
    // cell the moment any worker finishes it.
    const auto writeLine = [&](const std::string &line) {
        if (!stream.write(line))
            req.cancel->store(true, std::memory_order_release);
    };

    struct ObserverGuard
    {
        SweepService &svc;
        ~ObserverGuard()
        {
            svc.runner.setCellObserver(nullptr);
            svc.inflightCells.store(0, std::memory_order_release);
        }
    } observerGuard{*this};

    inflightCells.store(req.cells.size(), std::memory_order_release);
    runner.setCellObserver([&](std::size_t i, const RunResult &r) {
        std::ostringstream line;
        writeManifestLine(line,
                          ManifestEntry{
                              i, runner.jobKey(ex->jobs[i], i), r});
        std::lock_guard<std::mutex> lk(streamMtx);
        inflightCells.fetch_sub(1, std::memory_order_acq_rel);
        writeLine(line.str());
    });

    // Heartbeats keep the coordinator's lease timer (its SO_RCVTIMEO)
    // from firing between slow cells: silence now really does mean a
    // dead worker.
    std::mutex hbMtx;
    std::condition_variable hbCv;
    bool hbStop = false;
    std::thread heartbeat([&] {
        std::unique_lock<std::mutex> lk(hbMtx);
        for (;;) {
            if (hbCv.wait_for(
                    lk, std::chrono::milliseconds(cfg.heartbeatMs),
                    [&] { return hbStop; }))
                return;
            std::lock_guard<std::mutex> s(streamMtx);
            writeLine(dist::heartbeatLine());
        }
    });
    const auto stopHeartbeat = [&] {
        {
            std::lock_guard<std::mutex> lk(hbMtx);
            hbStop = true;
        }
        hbCv.notify_all();
        heartbeat.join();
    };

    try {
        runner.run(ex->jobs, req.cells);
    } catch (const std::exception &e) {
        stopHeartbeat();
        ELFSIM_WARN("shard aborted before completion: %s", e.what());
        cellsFailed.fetch_add(1, std::memory_order_relaxed);
        ::close(req.fd);
        return;
    }
    stopHeartbeat();

    {
        std::lock_guard<std::mutex> lk(streamMtx);
        writeLine(dist::doneLine(req.cells.size()));
    }
    stream.finish();
    ::close(req.fd);

    const std::vector<RunResult> &rs = runner.results();
    for (std::size_t i : req.cells) {
        const RunResult &r = rs[i];
        if (r.ok())
            cellsOk.fetch_add(1, std::memory_order_relaxed);
        else if (r.status == JobStatus::Cancelled)
            cellsCancelled.fetch_add(1, std::memory_order_relaxed);
        else
            cellsFailed.fetch_add(1, std::memory_order_relaxed);
    }
    shards.fetch_add(1, std::memory_order_relaxed);
    const SweepTiming &t = runner.timing();
    lastCellsPerSec.store(
        t.wallSeconds > 0 ? double(t.jobs) / t.wallSeconds : 0,
        std::memory_order_relaxed);
}

SweepService::Counters
SweepService::counters() const
{
    Counters c;
    c.requests = requests.load(std::memory_order_relaxed);
    c.badRequests = badRequests.load(std::memory_order_relaxed);
    c.sweeps = sweeps.load(std::memory_order_relaxed);
    c.shards = shards.load(std::memory_order_relaxed);
    c.artifacts = artifacts.load(std::memory_order_relaxed);
    c.cellsOk = cellsOk.load(std::memory_order_relaxed);
    c.cellsFailed = cellsFailed.load(std::memory_order_relaxed);
    c.cellsCancelled = cellsCancelled.load(std::memory_order_relaxed);
    {
        std::lock_guard<std::mutex> lk(queueMtx);
        c.queueDepth = queue.size();
    }
    c.inflightCells = inflightCells.load(std::memory_order_relaxed);
    c.lastCellsPerSec = lastCellsPerSec.load(std::memory_order_relaxed);
    return c;
}

std::string
SweepService::statsJson() const
{
    const Counters c = counters();
    const TraceStats ts = TraceCache::instance().stats();
    const CkptStats ks = CheckpointStore::instance().stats();

    // Everything leaves through the uniform StatGroup walk, so the
    // document's shape matches every other stats export.
    stats::StatGroup service("service");
    service.addCounter("requests", "HTTP requests accepted") +=
        c.requests;
    service.addCounter("bad_requests", "4xx responses") +=
        c.badRequests;
    service.addCounter("sweeps", "sweep runs completed") += c.sweeps;
    service.addCounter("shards", "shard runs completed") += c.shards;
    service.addCounter("artifacts", "artifacts installed") +=
        c.artifacts;
    service.addCounter("cells_ok", "cells completed ok") += c.cellsOk;
    service.addCounter("cells_failed", "cells failed") +=
        c.cellsFailed;
    service.addCounter("cells_cancelled", "cells cancelled") +=
        c.cellsCancelled;
    service.addCounter("queue_depth", "sweeps waiting") +=
        c.queueDepth;
    service.addCounter("inflight_cells",
                       "cells of the running sweep not yet done") +=
        c.inflightCells;
    service.addFormula("cells_per_sec",
                       "throughput of the last finished sweep",
                       [&c] { return c.lastCellsPerSec; });

    stats::StatGroup trace("trace");
    trace.addCounter("compiles", "traces compiled") += ts.compiles;
    trace.addCounter("cache_hits", "trace-cache hits") += ts.cacheHits;
    trace.addCounter("cache_misses", "trace-cache misses") +=
        ts.cacheMisses;
    trace.addCounter("bytes_mapped", "trace bytes mapped") +=
        ts.bytesMapped;
    trace.addFormula("compile_seconds", "wall-clock spent compiling",
                     [&ts] { return ts.compileSeconds; });

    stats::StatGroup ckpt("ckpt");
    ckpt.addCounter("hits", "checkpoints restored") += ks.hits;
    ckpt.addCounter("misses", "checkpoint lookups missed") +=
        ks.misses;
    ckpt.addCounter("saves", "checkpoints written") += ks.saves;
    ckpt.addCounter("load_failures", "corrupt artifacts skipped") +=
        ks.loadFailures;
    ckpt.addCounter("bytes_read", "checkpoint bytes read") +=
        ks.bytesRead;
    ckpt.addCounter("bytes_written", "checkpoint bytes written") +=
        ks.bytesWritten;

    std::ostringstream os;
    JsonWriter w(os);
    w.beginObject();
    w.field("schema", "elfsimd-stats-v1");
    w.key("service");
    stats::writeJson(w, service);
    w.key("trace");
    stats::writeJson(w, trace);
    w.key("ckpt");
    stats::writeJson(w, ckpt);
    w.endObject();
    os << '\n';
    return os.str();
}

} // namespace service
} // namespace elfsim
