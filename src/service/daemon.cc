#include "service/daemon.hh"

#include <cerrno>
#include <chrono>
#include <cstring>
#include <functional>
#include <map>
#include <numeric>
#include <optional>
#include <sstream>
#include <string_view>
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

/** Write a plain response and close the connection. */
void
reply(int fd, int status, std::string_view contentType,
      std::string_view body)
{
    const char *reason = status == 200   ? "OK"
                         : status == 400 ? "Bad Request"
                         : status == 403 ? "Forbidden"
                         : status == 404 ? "Not Found"
                                         : "Service Unavailable";
    writeHttpResponse(fd, status, reason, contentType, body);
    ::close(fd);
}

/**
 * Calls @a tick every @a periodMs on its own thread until destroyed —
 * a /shard stream's heartbeat, which keeps the coordinator's lease
 * timer (its SO_RCVTIMEO) from firing between slow cells: silence then
 * really does mean a dead worker.
 */
class Ticker
{
  public:
    Ticker(unsigned periodMs, std::function<void()> tick)
        : thread([this, periodMs, tick = std::move(tick)] {
              std::unique_lock<std::mutex> lk(mtx);
              while (!cv.wait_for(lk,
                                  std::chrono::milliseconds(periodMs),
                                  [this] { return stopped; }))
                  tick();
          })
    {
    }

    Ticker(const Ticker &) = delete;
    Ticker &operator=(const Ticker &) = delete;

    ~Ticker()
    {
        {
            std::lock_guard<std::mutex> lk(mtx);
            stopped = true;
        }
        cv.notify_all();
        thread.join();
    }

  private:
    std::mutex mtx;
    std::condition_variable cv;
    bool stopped = false;
    std::thread thread;
};

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
    for (Pending &p : leftovers)
        reply(p.fd, 503, "text/plain", "shutting down\n");
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
SweepService::reject(int fd, int status, std::string_view why)
{
    badRequests.fetch_add(1, std::memory_order_relaxed);
    reply(fd, status, "text/plain", std::string(why) + "\n");
}

void
SweepService::handleConnection(int fd)
{
    HttpRequest req;
    std::string err;
    if (!readHttpRequest(fd, req, err))
        return reject(fd, 400, err);
    requests.fetch_add(1, std::memory_order_relaxed);

    if (req.method == "GET" && req.path == "/healthz")
        return reply(fd, 200, "text/plain", "ok\n");
    if (req.method == "GET" && req.path == "/stats")
        return reply(fd, 200, "application/json", statsJson());
    const bool run = req.path == "/sweep" || req.path == "/shard";
    const bool artifact =
        req.path == "/artifact/trace" || req.path == "/artifact/ckpt";
    if (req.method != "POST" || !(run || artifact))
        return reject(fd, 404, "unknown endpoint");
    if (req.path != "/sweep" && !cfg.worker)
        return reject(fd, 403, "not a worker (start with --worker)");
    if (artifact)
        return handleArtifact(fd, req);

    Pending p;
    try {
        if (req.path == "/shard") {
            dist::ShardRequest sr = dist::parseShardRequest(req.body);
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
        return reject(fd, 400, e.what());
    }
    // The request's own policy applies, minus journaling: manifests
    // and resume are CLI-side concerns, and a remote spec must not be
    // able to scribble files onto the server (for /shard the stream
    // itself is the coordinator's journal).
    p.spec.policy.manifestPath.clear();
    p.spec.policy.resume = false;
    p.fd = fd;
    p.cancel = std::make_shared<std::atomic<bool>>(false);
    p.spec.policy.cancelFlag = p.cancel;
    {
        std::lock_guard<std::mutex> lk(queueMtx);
        if (stopping.load(std::memory_order_acquire))
            return reply(fd, 503, "text/plain", "shutting down\n");
        queue.push_back(std::move(p)); // fd ownership moves too
    }
    queueCv.notify_one();
}

void
SweepService::handleArtifact(int fd, const HttpRequest &req)
{
    // Artifact installs run inline on the handler thread: they only
    // validate bytes and touch caches, never simulate, so they must
    // not queue behind a long sweep — the coordinator ships artifacts
    // *before* dispatching shards and wants the acknowledgment now.
    if (req.path == "/artifact/trace") {
        const auto keyIt = req.headers.find("x-elfsim-key");
        std::uint64_t key = 0;
        if (keyIt == req.headers.end() ||
            !parseHexKey(keyIt->second, key))
            return reject(fd, 400,
                          "missing or malformed x-elfsim-key header");
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
            return reject(fd, 400, e.what());
        }
    } else {
        // /artifact/ckpt: the body is dropped into the checkpoint
        // directory verbatim; CheckpointStore's own load path
        // validates magic/key/checksum on use (any defect demotes to
        // fast-forward).
        const std::string dir = CheckpointStore::instance().directory();
        if (dir.empty())
            return reject(fd, 400,
                          "no checkpoint directory configured "
                          "(start the worker with --ckpt-cache)");
        const auto nameIt = req.headers.find("x-elfsim-name");
        if (nameIt == req.headers.end())
            return reject(fd, 400, "missing x-elfsim-name header");
        const std::string name = sanitizedName(nameIt->second);
        if (name.empty())
            return reject(fd, 400, "empty artifact name");
        std::string err;
        if (!writeFileAtomic(dir + "/" + name, {req.body}, err))
            return reject(fd, 400, err);
    }
    artifacts.fetch_add(1, std::memory_order_relaxed);
    reply(fd, 200, "text/plain", "installed\n");
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
        execute(std::move(p));
        {
            std::lock_guard<std::mutex> lk(queueMtx);
            currentCancel.reset();
        }
        if (stopping.load(std::memory_order_acquire))
            return;
    }
}

const ExpandedSweep &
SweepService::expandSpec(const SweepSpec &spec)
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
SweepService::execute(Pending req)
{
    // The client may have hung up while queued; don't burn a run on a
    // stream nobody reads.
    if (peerGone(req.fd)) {
        ::close(req.fd);
        return;
    }

    const ExpandedSweep *ex = nullptr;
    try {
        ex = &expandSpec(req.spec);
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
        // validateSweepSpec passed at enqueue time, so for /sweep this
        // is rare (e.g. a workload generator failure) — still
        // pre-stream, so a clean error response is possible.
        return reject(req.fd, 400, e.what());
    }
    if (!req.shard) {
        // /sweep is the all-cells case of the subset run.
        req.cells.resize(ex->jobs.size());
        std::iota(req.cells.begin(), req.cells.end(), std::size_t(0));
    }

    runner.setPolicy(req.spec.policy);
    runner.setBaseSeed(req.spec.baseSeed);

    ChunkedResponse stream(req.fd);
    stream.header(200, "OK",
                  req.shard ? "application/x-ndjson"
                            : "application/json");
    std::mutex streamMtx; // guards buf and the stream
    std::ostringstream buf; // bytes of the next chunk
    const auto flush = [&] {
        const std::string out = buf.str();
        buf.str(std::string());
        if (!out.empty() && !stream.write(out))
            req.cancel->store(true, std::memory_order_release);
    };

    // The cell sink, fed in completion order:
    //  /sweep  holds cells back and releases the in-order prefix, so
    //          the accumulated stream is byte-identical to
    //          writeResultsJson() over the merged results;
    //  /shard  writes one self-describing manifest line (global index
    //          + key) per cell at once: the coordinator does the
    //          merge, and journals a cell the moment any worker
    //          finishes it.
    std::optional<ResultsStreamWriter> writer; // /sweep only
    if (!req.shard)
        writer.emplace(buf);
    std::map<std::size_t, RunResult> held;
    std::size_t next = 0;
    const auto sinkCell = [&](std::size_t i, const RunResult &r) {
        if (req.shard) {
            writeManifestLine(
                buf, ManifestEntry{i, runner.jobKey(ex->jobs[i], i), r});
            return;
        }
        held.emplace(i, r);
        for (; !held.empty() && held.begin()->first == next; ++next) {
            writer->add(held.begin()->second);
            held.erase(held.begin());
        }
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

    inflightCells.store(req.cells.size(), std::memory_order_release);
    runner.setCellObserver([&](std::size_t i, const RunResult &r) {
        std::lock_guard<std::mutex> lk(streamMtx);
        inflightCells.fetch_sub(1, std::memory_order_acq_rel);
        sinkCell(i, r);
        flush();
    });

    try {
        std::optional<Ticker> heartbeat;
        if (req.shard)
            heartbeat.emplace(cfg.heartbeatMs, [&] {
                std::lock_guard<std::mutex> lk(streamMtx);
                buf << dist::heartbeatLine();
                flush();
            });
        runner.run(ex->jobs, req.cells);
    } catch (const std::exception &e) {
        // Per-cell failures degrade in the runner, but pre-run
        // machinery (trace compilation, pool setup) can still throw.
        // The stream is already open, so no clean error response is
        // possible — truncate it (the client sees a framing error)
        // and keep the daemon alive for the next request.
        ELFSIM_WARN("%s aborted before completion: %s",
                    req.shard ? "shard" : "sweep", e.what());
        cellsFailed.fetch_add(1, std::memory_order_relaxed);
        ::close(req.fd);
        return;
    }

    {
        std::lock_guard<std::mutex> lk(streamMtx);
        if (req.shard)
            buf << dist::doneLine(req.cells.size());
        else
            writer->finish();
        flush();
    }
    stream.finish();
    ::close(req.fd);

    const std::vector<RunResult> &rs = runner.results();
    for (std::size_t i : req.cells) {
        if (rs[i].ok())
            cellsOk.fetch_add(1, std::memory_order_relaxed);
        else if (rs[i].status == JobStatus::Cancelled)
            cellsCancelled.fetch_add(1, std::memory_order_relaxed);
        else
            cellsFailed.fetch_add(1, std::memory_order_relaxed);
    }
    (req.shard ? shards : sweeps).fetch_add(1, std::memory_order_relaxed);
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
