/**
 * @file
 * Per-job cancellation plumbing and the deterministic fault-injection
 * harness that drives the sweep engine's recovery tests.
 *
 * JobControl is the shared control block between a sweep worker and
 * the watchdog monitor: the worker publishes a committed-instruction
 * heartbeat from the Core::run poll point; the monitor (or a SIGINT
 * handler path) raises the cooperative cancellation flag with a
 * reason, and the worker notices at its next poll and unwinds with a
 * typed error. ExecContext carries the block (plus the job's identity)
 * through a thread-local so the core's hot loop needs no new
 * parameters — a run outside any sweep has a null context and pays
 * nothing.
 *
 * FaultInjector is armed from the environment:
 *
 *   ELFSIM_FAULT=<site>:<job>:<tick>[,<site>:<job>:<tick>...]
 *
 * where <site> names the fault to raise when job <job> (submission
 * index, or '*' for every job) reaches simulated cycle <tick> at a
 * poll point:
 *
 *   throw      raise InjectedError (cell -> failed)
 *   panic      trip ELFSIM_PANIC (exercises the recoverable-panic
 *              path; cell -> failed)
 *   transient  raise TransientError on the first attempt only
 *              (cell -> ok after one retry when retries are enabled)
 *   hang       stop committing and spin until the watchdog cancels
 *              (cell -> timeout; requires --stall or --deadline)
 *   slow       sleep 1 ms at every subsequent poll (cell -> timeout
 *              when a deadline is set, otherwise just slow)
 *   tracecache corrupt compiled-trace cache reads: the TraceCache
 *              behaves as if every matching on-disk artifact failed
 *              its checksum, forcing the transparent recompile path
 *              (cell -> ok, just slower; proves a poisoned cache can
 *              never fail a cell). The <tick> field is ignored —
 *              cache loads happen before simulated time starts.
 *   ckptcache  corrupt warm-state checkpoint reads: the
 *              CheckpointStore behaves as if every matching artifact
 *              failed its checksum, forcing the transparent
 *              fast-forward fallback (cell -> ok, just slower). The
 *              <tick> field is ignored, like tracecache.
 *
 * Network sites reuse the same grammar with the middle field naming a
 * WORKER INDEX (position in the coordinator's --workers list, '*' for
 * every worker) instead of a job, and the last field an ordinal or
 * byte offset. They fire only inside the coordinator process — the
 * hooks live in its connect/stream/upload paths — so a fleet spawned
 * with the variable in its environment inherits the sim sites above
 * but never consults these:
 *
 *   netrefuse  refuse the first N connect attempts to the worker
 *              (N = 0 refuses every attempt; exercises reconnect
 *              backoff, and with '*':0 the whole-fleet-lost fallback)
 *   netdrop    tear the shard stream as "connection closed
 *              mid-stream" at the Nth delivered event (stream line or
 *              artifact upload, counted per worker in program order);
 *              fires once (cells -> requeued, merge unchanged)
 *   nettrunc   truncate the shard stream at raw byte offset B, then
 *              fail it as closed; fires once (a torn line can never
 *              reach the merge)
 *   netcorrupt flip a byte in the Nth artifact payload sent to the
 *              worker; fires once (worker rejects with 400, the
 *              retried upload is intact)
 *   nethb      report the Nth delivered event as a receive timeout —
 *              the observable signature of dropped worker heartbeats
 *              (lease expires, cells requeue); fires once
 *   netslow    sleep ~20 ms before each of the first N sends to the
 *              worker (N = 0: every send; builds stragglers for
 *              hedged dispatch)
 *
 * Injection is deterministic: sim sites key on simulated cycles and
 * the job's submission index; net sites key on (worker index, event
 * ordinal / byte offset), never on wall-clock or thread identity.
 */

#ifndef ELFSIM_COMMON_FAULT_HH
#define ELFSIM_COMMON_FAULT_HH

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace elfsim {

/** Why a job was asked to stop (JobControl::reason). */
enum class CancelReason : int
{
    None = 0,
    Deadline,    ///< per-job wall-clock deadline exceeded
    Stalled,     ///< committed-instruction heartbeat stopped advancing
    Interrupted, ///< global interrupt (SIGINT/SIGTERM)
};

/** Shared control block between one sweep job and the watchdog. */
struct JobControl
{
    std::atomic<bool> cancel{false};
    std::atomic<int> reason{int(CancelReason::None)};
    /** Committed instructions, published from the core's poll point. */
    std::atomic<std::uint64_t> heartbeat{0};

    /** First reason wins; later requests keep the original cause. */
    void
    requestCancel(CancelReason r)
    {
        int expected = int(CancelReason::None);
        reason.compare_exchange_strong(expected, int(r));
        cancel.store(true, std::memory_order_release);
    }

    bool
    cancelled() const
    {
        return cancel.load(std::memory_order_acquire);
    }

    CancelReason
    cancelReason() const
    {
        return CancelReason(reason.load());
    }

    /** Reset for a fresh attempt (bounded retries). */
    void
    reset()
    {
        cancel.store(false);
        reason.store(int(CancelReason::None));
        heartbeat.store(0);
    }
};

/**
 * Identity and control of the sweep job running on this thread.
 * Installed via ScopedExecContext around runSimulation; Core::run
 * polls it periodically (heartbeat, cancellation, fault injection).
 */
struct ExecContext
{
    std::size_t jobIndex = 0;
    unsigned attempt = 1; ///< 1-based; retries increment
    JobControl *control = nullptr;

    /**
     * Called from the core's run loop every few thousand cycles:
     * publishes the heartbeat, honors cancellation (throws
     * TimeoutError / CancelledError), and gives the fault injector
     * its deterministic hook. @a committed is the core's committed
     * instruction count, @a tick its cycle count.
     */
    void poll(std::uint64_t tick, std::uint64_t committed);
};

/** The context installed on this thread, or nullptr outside sweeps. */
ExecContext *currentExecContext();

/** RAII installer for the thread-local ExecContext. */
class ScopedExecContext
{
  public:
    explicit ScopedExecContext(ExecContext &ctx);
    ~ScopedExecContext();
    ScopedExecContext(const ScopedExecContext &) = delete;
    ScopedExecContext &operator=(const ScopedExecContext &) = delete;

  private:
    ExecContext *prev;
};

/** What an armed fault does when it fires. */
enum class FaultKind
{
    Throw,
    Panic,
    Transient,
    Hang,
    Slow,
    TraceCache,
    CkptCache,
    NetRefuse,
    NetDrop,
    NetTrunc,
    NetCorrupt,
    NetHeartbeat,
    NetSlow
};

/** True for the coordinator-side network sites (netrefuse &c.). */
bool isNetFault(FaultKind k);

/**
 * One armed fault: fire @a kind in job @a job at cycle @a tick. Net
 * sites reinterpret the fields: @a job is the worker index and
 * @a tick the event ordinal or byte offset (see the file comment).
 */
struct FaultSpec
{
    FaultKind kind = FaultKind::Throw;
    std::size_t job = 0;
    bool anyJob = false; ///< spec used '*' for the job field
    std::uint64_t tick = 0;
};

/** What netEventFault() asks the caller to simulate. */
enum class NetEventFault
{
    None,    ///< deliver the event normally
    Drop,    ///< fail as "connection closed mid-stream"
    Timeout, ///< fail as "receive timeout (lease expired)"
};

/** Deterministic fault-injection harness (see file comment). */
class FaultInjector
{
  public:
    /** Process-wide injector, armed from $ELFSIM_FAULT on first use
     *  (a malformed spec is a fatal user error). */
    static FaultInjector &instance();

    /** Parse a spec string; throws ConfigError on malformed input. */
    static std::vector<FaultSpec> parse(const std::string &spec);

    /** Replace the armed faults (tests; not thread-safe vs poll). */
    void arm(std::vector<FaultSpec> specs);

    /** Drop every armed fault and its fired state. */
    void disarm() { arm({}); }

    /** True when any fault is armed (thread-safe: tests re-arm while
     *  service/worker threads poll concurrently). */
    bool
    armed() const
    {
        std::lock_guard<std::mutex> lk(netMtx);
        return !armedFaults.empty();
    }

    /** Deterministic hook called from ExecContext::poll. */
    void poll(const ExecContext &ctx, std::uint64_t tick);

    /**
     * Hook for the TraceCache's disk-read path: true when a
     * 'tracecache' fault is armed for the job on this thread (or for
     * every job, or when no job context is installed — precompilation
     * runs before any job starts). The tick field is ignored; see the
     * file comment.
     */
    bool shouldCorruptTraceRead() const;

    /** Same hook for the CheckpointStore's disk-read path ('ckptcache'
     *  faults; identical matching rules). */
    bool shouldCorruptCkptRead() const;

    // ---- network hooks (coordinator-side; see the file comment) ----
    //
    // Each armed net spec carries a private event counter, reset by
    // arm(); counting is serialized under a mutex but the per-worker
    // event order itself is deterministic because all traffic to one
    // worker flows through that worker's coordinator thread (plus the
    // sequential pre-dispatch staging pass).

    /** True when a 'netrefuse' spec says to refuse this connect
     *  attempt to @a worker (counts one attempt per call). */
    bool netRefuseConnect(std::size_t worker);

    /** Advance the droppable-event counters for @a worker; returns
     *  the failure the caller must simulate for this event ('netdrop'
     *  / 'nethb' sites, each firing once). */
    NetEventFault netEventFault(std::size_t worker);

    /**
     * 'nettrunc' hook for the stream read path: @a soFar raw bytes
     * have been delivered to @a worker's stream and @a incoming more
     * just arrived. Returns how many of them to deliver; a short
     * return consumes the fault, and the caller must then fail the
     * stream as closed (after delivering the allowed prefix).
     */
    std::size_t netTruncAllow(std::size_t worker, std::uint64_t soFar,
                              std::size_t incoming);

    /** True when the next artifact payload sent to @a worker should
     *  be corrupted ('netcorrupt'; counts one upload per call). */
    bool netCorruptArtifact(std::size_t worker);

    /** Milliseconds to stall before the next send to @a worker
     *  ('netslow'; counts one send per call), 0 for none. */
    unsigned netSendDelayMs(std::size_t worker);

  private:
    FaultInjector() = default;

    /**
     * Firing is stateless: throw/panic/transient end the attempt the
     * moment they fire, hang blocks until cancelled and then ends the
     * attempt, and slow deliberately re-fires at every poll. Matching
     * keys only on (job index, attempt, simulated cycle), so the
     * armed list is read-only after arm().
     */
    void fire(const FaultSpec &s, const ExecContext &ctx);

    /** Is a @a kind fault armed for the job on this thread (or for
     *  every job, or is no job context installed)? */
    bool armedForThisJob(FaultKind kind) const;

    /** Per-armed-spec firing state for the net sites. */
    struct NetState
    {
        std::uint64_t count = 0; ///< events seen for this spec
        bool spent = false;      ///< one-shot sites that already fired
    };

    std::vector<FaultSpec> armedFaults;
    std::vector<NetState> netState; ///< parallel to armedFaults
    /** Guards armedFaults and the netState counters: arm() runs from
     *  test threads while service/worker threads poll. (mutable: the
     *  read-side hooks are const.) */
    mutable std::mutex netMtx;
};

} // namespace elfsim

#endif // ELFSIM_COMMON_FAULT_HH
