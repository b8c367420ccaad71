#include "sim/runner.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"
#include "common/random.hh"
#include "workload/checkpoint_store.hh"
#include "workload/trace_cache.hh"

namespace elfsim {

namespace {

/** Derive one timeline row from a per-interval snapshot delta. */
IntervalSample
makeSample(const StatSnapshot &d, InstCount startInst)
{
    IntervalSample s;
    s.startInst = startInst;
    s.insts = d.insts;
    s.cycles = d.cycles;
    s.ipc = d.cycles ? double(d.insts) / double(d.cycles) : 0.0;
    s.condMispredicts = d.condMispredicts;
    s.targetMispredicts = d.targetMispredicts;
    s.execFlushes = d.execFlushes;
    s.memOrderFlushes = d.memOrderFlushes;
    s.decodeResteers = d.decodeResteers;
    s.divergenceFlushes = d.divergenceFlushes;
    s.coupledFrac =
        d.insts ? double(d.coupledCommitted) / double(d.insts) : 0.0;
    return s;
}

/** Elementwise acc += d, for summing measured-window deltas. */
void
accumulate(StatSnapshot &acc, const StatSnapshot &d)
{
    acc.cycles += d.cycles;
    acc.insts += d.insts;
    acc.condMispredicts += d.condMispredicts;
    acc.targetMispredicts += d.targetMispredicts;
    acc.execFlushes += d.execFlushes;
    acc.memOrderFlushes += d.memOrderFlushes;
    acc.decodeResteers += d.decodeResteers;
    acc.divergenceFlushes += d.divergenceFlushes;
    acc.coupledCommitted += d.coupledCommitted;
    acc.l1dMisses += d.l1dMisses;
    acc.redirectToFetchTotal += d.redirectToFetchTotal;
    acc.redirectToFetchCount += d.redirectToFetchCount;
}

/** Two-sided 95% Student-t interval multiplier for @a dof degrees of
 *  freedom; converges to the normal quantile past the table. */
double
t95(std::size_t dof)
{
    static const double tab[] = {
        12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306,
        2.262,  2.228, 2.201, 2.179, 2.160, 2.145, 2.131, 2.120,
        2.110,  2.101, 2.093, 2.086, 2.080, 2.074, 2.069, 2.064,
        2.060,  2.056, 2.052, 2.048, 2.045, 2.042};
    if (dof == 0)
        return 0.0;
    if (dof <= sizeof(tab) / sizeof(tab[0]))
        return tab[dof - 1];
    return 1.96;
}

/**
 * Relative systematic-error allowance for functional warming, per
 * fully fast-forwarded instruction fraction. Fast-forward trains
 * predictors and caches on the committed path only: it cannot
 * reproduce wrong-path fetches and fills, so detailed windows start
 * from slightly cleaner caches than the full machine would have and
 * measure slightly fast. Empirically the effect tops out near 5% of
 * IPC on the branchy / large-footprint catalog workloads when nearly
 * the whole stream is skipped, and shrinks as detailed coverage
 * grows, so it is scaled by the skipped fraction. A variance bound
 * alone cannot see this bias — it is the same in every window.
 */
constexpr double warmingBiasAllowance = 0.05;

/**
 * 95% relative error bound on the sampled IPC estimate: the Student-t
 * confidence half-width on the mean of the per-window IPCs @a xs
 * (sample variance, n - 1; the t quantile matters at the 10-30
 * windows typical here) plus the functional-warming bias allowance
 * for the fraction @a ffFraction of each period that is only
 * functionally warmed. 0 when fewer than two windows — no variance
 * estimate exists.
 */
double
relErr95(const std::vector<double> &xs, double ffFraction)
{
    const std::size_t n = xs.size();
    if (n < 2)
        return 0.0;
    double sum = 0.0;
    for (double x : xs)
        sum += x;
    const double mean = sum / double(n);
    if (mean <= 0.0)
        return 0.0;
    double var = 0.0;
    for (double x : xs)
        var += (x - mean) * (x - mean);
    var /= double(n - 1);
    return t95(n - 1) * std::sqrt(var / double(n)) / mean +
           warmingBiasAllowance * ffFraction;
}

/** Does the compiled trace (if any) cover stream position @a pos, so
 *  the oracle can reseek there with no generator resume state? */
bool
streamCovers(const std::shared_ptr<const CompiledTrace> &trace,
             InstCount pos)
{
    return trace && pos <= trace->size();
}

/** Fill the summary fields every run shape shares: the accumulated
 *  measurement-window deltas plus the cumulative end-of-run rates. */
void
fillSummary(RunResult &r, const Core &core, const StatSnapshot &d)
{
    r.cycles = d.cycles;
    r.insts = d.insts;
    r.ipc = r.cycles ? double(r.insts) / double(r.cycles) : 0.0;

    const double kilo = double(r.insts) / 1000.0;
    r.condMpki = kilo > 0 ? double(d.condMispredicts) / kilo : 0;
    r.branchMpki =
        kilo > 0
            ? double(d.condMispredicts + d.targetMispredicts) / kilo
            : 0;

    r.execFlushes = d.execFlushes;
    r.memOrderFlushes = d.memOrderFlushes;
    r.decodeResteers = d.decodeResteers;
    r.divergenceFlushes = d.divergenceFlushes;
    r.pendingFlushWaits = core.stats().pendingFlushWaits;

    r.btbHitL0 = core.btb().cumulativeHitRate(0);
    r.btbHitL1 = core.btb().cumulativeHitRate(1);
    r.btbHitL2 = core.btb().cumulativeHitRate(2);

    const auto &l0i = core.memory().l0i();
    r.l0iMissRate = l0i.accesses()
                        ? double(l0i.misses()) / double(l0i.accesses())
                        : 0;
    r.l1dMpki = kilo > 0 ? double(d.l1dMisses) / kilo : 0;

    r.wrongPathInsts = core.supply().wrongPathInsts();
    r.instPrefetches = core.elf().stats().instPrefetches;

    r.avgRedirectToFetch =
        d.redirectToFetchCount
            ? double(d.redirectToFetchTotal) /
                  double(d.redirectToFetchCount)
            : 0.0;

    r.avgCoupledInsts = core.elf().stats().avgCoupledInstsPerPeriod();
    r.coupledPeriods = core.elf().stats().coupledPeriods;
    r.coupledCommittedFrac =
        r.insts ? double(d.coupledCommitted) / double(r.insts) : 0;
}

/**
 * Sampled execution: partition the total instruction budget into
 * periods of P instructions, run W unmeasured + L measured detailed
 * instructions at the *start* of each period, fast-forward
 * (functional warming) across the remainder, and extrapolate.
 *
 * Window placement is stratified random: each period draws a
 * deterministic pseudo-random offset in [0, P-W-L] for its detailed
 * window and fast-forwards around it. Fixed anchoring is measurably
 * biased here — end-anchored windows never measure the cold-start
 * region at all (IPC estimate biased high on short streams),
 * start-anchored ones extrapolate the coldest slice to a whole period
 * (biased low), and any fixed offset can resonate with periodic phase
 * behavior. Random placement within each stratum is unbiased for the
 * stream average and is what makes the CLT error bound on the
 * per-window IPC spread actually valid. The offset stream is seeded
 * from the schedule alone, so a re-run of the same (program, config,
 * schedule) measures identical positions — results stay bit-exact
 * reproducible and checkpoints keep hitting.
 *
 * Warm-state checkpoints at each detailed-window start are
 * restored/saved through the CheckpointStore, so a re-run of the same
 * (program content, config, schedule) skips every fast-forward.
 */
RunResult
runSampled(const Program &prog, const SimConfig &cfg,
           const RunOptions &opts)
{
    const InstCount P = opts.samplePeriodInsts;
    const InstCount L = opts.sampleLengthInsts;
    const InstCount W = opts.sampleWarmupInsts;
    if (L == 0)
        throw ConfigError("sampled run needs a measured window: "
                          "sample length must be > 0");
    if (W + L > P)
        throw ConfigError(
            "sampling schedule does not fit: sample warmup (" +
            std::to_string(W) + ") + length (" + std::to_string(L) +
            ") exceed the period (" + std::to_string(P) + ")");
    if (opts.intervalInsts > 0)
        throw ConfigError("interval timeline capture and sampled "
                          "execution are mutually exclusive");
    const std::uint64_t windows =
        (opts.warmupInsts + opts.measureInsts) / P;
    if (windows == 0)
        throw ConfigError(
            "total instruction budget (" +
            std::to_string(opts.warmupInsts + opts.measureInsts) +
            ") smaller than one sampling period (" +
            std::to_string(P) + ")");

    const InstCount ffInsts = P - W - L;
    const std::uint64_t cfgFp = configFingerprint(cfg);
    CheckpointStore &store = CheckpointStore::instance();

    // Back the stream with a memoized compiled prefix, shared by every
    // cell of the workload. The acquisition is capped — past the cap,
    // fast-forward compiles transient chunks of the stream itself —
    // and null when trace compilation is disabled.
    std::shared_ptr<const CompiledTrace> trace = opts.trace;
    if (!trace)
        trace = TraceCache::instance().acquire(prog, traceBudget(opts));

    // Two attempts: the second only runs if a checkpoint passed every
    // artifact-level check yet its payload failed mid-restore (layout
    // drift), leaving the core half-loaded. That run restarts from
    // scratch with checkpoints disabled — correctness never depends
    // on the cache.
    for (int attempt = 0; attempt < 2; ++attempt) {
        const bool useCkpts = attempt == 0 && store.usable();
        Core core(cfg, prog, trace);
        // Per-window placement offsets; re-seeded per attempt so a
        // checkpoint-pollution restart measures the same positions.
        Rng offsetRng(mix64(P, mix64(L, W)));

        StatSnapshot acc{};
        std::vector<IntervalSample> timeline;
        std::vector<double> ipcs;
        timeline.reserve(windows);
        ipcs.reserve(windows);
        std::uint64_t ckptHits = 0, ckptMisses = 0, ckptSaves = 0;
        std::uint64_t ffTotal = 0; ///< insts fast-forwarded (coherence
                                   ///< witness for the warm counters)
        bool polluted = false;

        for (std::uint64_t w = 0; w < windows; ++w) {
            const InstCount offset =
                ffInsts ? InstCount(offsetRng.below(ffInsts + 1)) : 0;
            const InstCount detailedStart = w * P + offset;
            // Quiesce: drop in-flight work, keep only warm state.
            core.squashToCommitted();

            // A W+L == P schedule has no fast-forward to skip and so
            // never benefits from an artifact.
            const bool ckptHere =
                useCkpts && detailedStart > 0 && ffInsts > 0;
            bool restored = false;
            std::uint64_t key = 0;
            if (ckptHere) {
                key = CheckpointStore::key(prog, cfgFp, P, L, W,
                                           detailedStart);
                std::vector<std::uint8_t> payload;
                if (store.load(prog.name(), key, detailedStart,
                               payload)) {
                    bool coreTouched = false;
                    try {
                        Deserializer d(payload);
                        const bool hasGen = d.boolean();
                        OracleGen gen;
                        if (hasGen)
                            gen.loadState(d);
                        if (hasGen ||
                            streamCovers(trace, detailedStart)) {
                            coreTouched = true;
                            core.loadWarmState(
                                d, detailedStart,
                                hasGen ? &gen : nullptr);
                            restored = true;
                        }
                        // else: artifact carries no generator resume
                        // state and no trace covers the position —
                        // unusable here; fast-forward instead.
                    } catch (const ParseError &e) {
                        if (coreTouched) {
                            // Checksum passed but the layout drifted
                            // mid-load: the core is polluted. Restart
                            // the whole run without checkpoints.
                            ELFSIM_WARN(
                                "checkpoint restore failed mid-load "
                                "(%s); restarting run without "
                                "checkpoints", e.what());
                            polluted = true;
                        } else {
                            ELFSIM_WARN(
                                "checkpoint payload unusable (%s); "
                                "falling back to fast-forward",
                                e.what());
                        }
                    }
                }
            }
            if (polluted)
                break;

            if (restored) {
                ++ckptHits;
            } else {
                if (ckptHere)
                    ++ckptMisses;
                ELFSIM_ASSERT(core.consumedInsts() <= detailedStart,
                              "sampled run overran the window start");
                if (detailedStart > core.consumedInsts()) {
                    ffTotal += detailedStart - core.consumedInsts();
                    core.fastForward(detailedStart -
                                     core.consumedInsts());
                }
                if (ckptHere) {
                    Serializer s;
                    // Persist the generator resume state only when it
                    // is live *and* needed: inside a compiled prefix
                    // the reseek is array-backed.
                    const bool hasGen =
                        core.ffResumeStateValid() &&
                        !streamCovers(trace, detailedStart);
                    s.boolean(hasGen);
                    if (hasGen)
                        core.ffResumeState().saveState(s);
                    core.saveWarmState(s);
                    store.save(prog.name(), key, detailedStart,
                               s.data());
                    ++ckptSaves;
                }
            }

            // Detailed window: unmeasured pipeline warmup, then the
            // measured interval. Both also warm predictors/caches.
            core.run(W);
            const StatSnapshot start = StatSnapshot::capture(core);
            core.run(L);
            const StatSnapshot d =
                StatSnapshot::capture(core).delta(start);
            accumulate(acc, d);
            timeline.push_back(makeSample(d, detailedStart + W));
            ipcs.push_back(timeline.back().ipc);
        }
        if (polluted)
            continue;

        RunResult r;
        r.workload = prog.name();
        r.variant = variantName(cfg.variant);
        fillSummary(r, core, acc);

        // One timeline row per measured window, so the tiling
        // invariants (sum of row insts == r.insts, cycles likewise)
        // hold exactly as they do for interval capture.
        r.intervalInsts = L;
        r.timeline = std::move(timeline);

        r.sampled = true;
        r.sampling.periodInsts = P;
        r.sampling.lengthInsts = L;
        r.sampling.warmupInsts = W;
        r.sampling.windows = windows;
        r.sampling.totalInsts = windows * P;
        r.sampling.measuredInsts = acc.insts;
        r.sampling.ipcRelErr95 =
            relErr95(ipcs, double(ffInsts) / double(P));
        r.sampling.estTotalCycles =
            acc.insts ? double(acc.cycles) *
                            double(r.sampling.totalInsts) /
                            double(acc.insts)
                      : 0.0;
        r.sampling.ckptHits = ckptHits;
        r.sampling.ckptMisses = ckptMisses;
        r.sampling.ckptSaves = ckptSaves;

        // Functional-warming work split (counted on the core; the
        // independent ffTotal witnesses kernel + scalar == ff).
        const WarmStats &wd = core.warmStats();
        r.sampling.warmKernelInsts = wd.kernelInsts;
        r.sampling.warmScalarInsts = wd.scalarInsts;
        r.sampling.warmBranchEvents = wd.branchEvents;
        r.sampling.warmLinesTouched = wd.linesTouched;
        r.sampling.warmFfInsts = ffTotal;
        recordWarmStats(wd);
        return r;
    }
    throw ParseError("sampled run failed twice; checkpoint store and "
                     "fallback both unusable");
}

} // namespace

StatSnapshot
StatSnapshot::capture(const Core &core)
{
    StatSnapshot s;
    s.cycles = core.cycles();
    s.insts = core.committed();
    s.condMispredicts = core.backend().stats().condMispredicts;
    s.targetMispredicts = core.backend().stats().targetMispredicts;
    s.execFlushes = core.stats().execFlushes;
    s.memOrderFlushes = core.stats().memOrderFlushes;
    s.decodeResteers = core.stats().decodeResteers;
    s.divergenceFlushes = core.stats().divergenceFlushes;
    s.coupledCommitted = core.backend().stats().coupledCommitted;
    s.l1dMisses = core.memory().l1d().misses();
    s.redirectToFetchTotal = core.stats().redirectToFetchTotal;
    s.redirectToFetchCount = core.stats().redirectToFetchCount;
    return s;
}

StatSnapshot
StatSnapshot::delta(const StatSnapshot &since) const
{
    StatSnapshot d;
    d.cycles = cycles - since.cycles;
    d.insts = insts - since.insts;
    d.condMispredicts = condMispredicts - since.condMispredicts;
    d.targetMispredicts = targetMispredicts - since.targetMispredicts;
    d.execFlushes = execFlushes - since.execFlushes;
    d.memOrderFlushes = memOrderFlushes - since.memOrderFlushes;
    d.decodeResteers = decodeResteers - since.decodeResteers;
    d.divergenceFlushes = divergenceFlushes - since.divergenceFlushes;
    d.coupledCommitted = coupledCommitted - since.coupledCommitted;
    d.l1dMisses = l1dMisses - since.l1dMisses;
    d.redirectToFetchTotal =
        redirectToFetchTotal - since.redirectToFetchTotal;
    d.redirectToFetchCount =
        redirectToFetchCount - since.redirectToFetchCount;
    return d;
}

RunResult
runSimulation(const Program &prog, const SimConfig &cfg,
              const RunOptions &opts)
{
    if (opts.sampled())
        return runSampled(prog, cfg, opts);
    if (opts.sampleLengthInsts > 0 || opts.sampleWarmupInsts > 0)
        throw ConfigError("sample length/warmup require a sample "
                          "period");

    // The trace only needs to cover the committed-instruction budget;
    // fetch-ahead past it falls through to the lazy tail, which is
    // stream-identical by construction.
    std::shared_ptr<const CompiledTrace> trace = opts.trace;
    if (!trace)
        trace = TraceCache::instance().acquire(prog, traceBudget(opts));
    Core core(cfg, prog, std::move(trace));

    // Warmup: predictors, BTB, and caches train; stats that matter
    // are measured as deltas across the measurement window.
    core.run(opts.warmupInsts);
    const StatSnapshot warm = StatSnapshot::capture(core);

    std::vector<IntervalSample> timeline;
    if (opts.intervalInsts > 0 && opts.measureInsts > 0) {
        // Tick the same absolute instruction target as the one-shot
        // path below, pausing every intervalInsts commits to snapshot
        // a delta row. Core::run is resumable, so the chunked run is
        // cycle-for-cycle identical to the unsampled one.
        const InstCount target = core.committed() + opts.measureInsts;
        StatSnapshot prev = warm;
        while (core.committed() < target) {
            const InstCount chunk = std::min<InstCount>(
                opts.intervalInsts, target - core.committed());
            core.run(chunk);
            const StatSnapshot now = StatSnapshot::capture(core);
            timeline.push_back(
                makeSample(now.delta(prev), prev.insts - warm.insts));
            prev = now;
        }
    } else {
        core.run(opts.measureInsts);
    }
    const StatSnapshot d = StatSnapshot::capture(core).delta(warm);

    RunResult r;
    r.workload = prog.name();
    r.variant = variantName(cfg.variant);
    fillSummary(r, core, d);

    r.intervalInsts = opts.intervalInsts;
    r.timeline = std::move(timeline);

    return r;
}

RunResult
runVariant(const Program &prog, FrontendVariant variant,
           const RunOptions &opts)
{
    return runSimulation(prog, makeConfig(variant), opts);
}

double
geomean(const std::vector<double> &xs)
{
    if (xs.empty())
        return 0.0;
    double logSum = 0.0;
    for (double x : xs) {
        ELFSIM_ASSERT(x > 0, "geomean of non-positive value");
        logSum += std::log(x);
    }
    return std::exp(logSum / double(xs.size()));
}

} // namespace elfsim
