/**
 * @file
 * Batch functional-warming kernel (Core::warmKernel).
 *
 * The only fast-forward warmer. Replays a window of the compiled
 * architectural stream — the memoized prefix, or a transient chunk
 * the stream compiles past it (Core::fastForward) — through the warm
 * structures: caches, predictors, BTB hierarchy, BTB builder. It
 * iterates the elfsim-trace-v2 warming side tables instead of
 * stepping instruction by instruction:
 *
 *   - the cache pass merges I-line transitions (computed from the
 *     sequential-run list and the configured L0I line size — line
 *     geometry is config-dependent, so transitions are never stored)
 *     with the memory-event list, in stream order, issuing exactly
 *     the instFetch/dataAccess calls per-instruction warming would;
 *   - the branch pass walks the branch-event list, catching the BTB
 *     builder up over branch-free gaps with
 *     BtbBuilder::retireSequentialRange, then training
 *     TAGE/ITTAGE/bimodal/RAS, the coupled predictors, and the BTB
 *     exactly like commit of an unpredicted branch.
 *
 * The two passes touch disjoint state (MemHierarchy vs the predictor/
 * BTB group), and each preserves stream order within its group, so
 * splitting them is state-equivalent to interleaved per-instruction
 * warming. Work is chunked on the fastForward()-relative ffPollInsts
 * ladder: the ExecContext poll fires at chunk start with the (cycles,
 * committed) pair of that stream position, and a poll that throws
 * leaves the chunk unprocessed. The hard invariant, enforced
 * catalog-wide by test_warm_kernel against a per-instruction
 * reference: serialized warm state after this kernel is byte-identical
 * to warming one instruction at a time.
 */

#include <chrono>
#include <mutex>

#include "common/fault.hh"
#include "sim/core.hh"
#include "workload/compiled_trace.hh"

namespace elfsim {

namespace {

std::mutex warmStatsMtx;
WarmStats processWarm;

} // namespace

void
recordWarmStats(const WarmStats &d)
{
    std::lock_guard<std::mutex> lock(warmStatsMtx);
    processWarm.add(d);
}

WarmStats
processWarmStats()
{
    std::lock_guard<std::mutex> lock(warmStatsMtx);
    return processWarm;
}

void
Core::warmKernel(const CompiledTrace &tr, InstCount base, InstCount kn,
                 InstCount ff_start, Addr &last_line)
{
    const SeqNum idx0 = lastCommitOracleIdx;
    ELFSIM_ASSERT(base <= idx0 && ff_start <= idx0 &&
                      idx0 - base + kn <= tr.size(),
                  "warm kernel window outside its trace");
    const auto wallStart = std::chrono::steady_clock::now();

    const Addr lineBytes = Addr(cfg.mem.l0i.lineBytes);
    const Addr lineMask = ~(lineBytes - 1);
    const Cycle cycle0 = coreStats.cycles;
    const InstCount q0 = idx0 - base; // first trace position warmed
    const InstCount rung0 = idx0 - ff_start;
    ExecContext *exec = currentExecContext();

    // Side-table cursors, advanced monotonically across chunks.
    InstCount r = tr.runContaining(q0);
    InstCount m = tr.firstMemAtOrAfter(q0);
    InstCount b = tr.firstBranchAtOrAfter(q0);
    const StaticInst *image = prog.instructions().data();

    // PC of the branch pass's next unretired position, tracked
    // incrementally: between branch events the stream is strictly
    // sequential (runs end only at taken *branches*), and each
    // event's recorded next-PC is the PC after it — taken target or
    // fall-through alike. One search seeds it; no lookups after.
    Addr gapNextPC = tr.runPC(r) + instsToBytes(q0 - tr.runPos(r));

    std::uint64_t fetches = 0;
    const InstCount bAtEntry = b;

    InstCount i = 0; // call-relative position
    while (i < kn) {
        // Poll on the fastForward()-relative ladder; a chunk runs to
        // the next rung (or the window end).
        const InstCount rung = (rung0 + i) % ffPollInsts;
        if (exec && rung == 0)
            exec->poll(cycle0 + i, idx0 + i);
        const InstCount c1 = std::min(i + ffPollInsts - rung, kn);
        const InstCount A0 = q0 + i;
        const InstCount A1 = q0 + c1;

        // --- cache pass: line transitions merged with mem events ---
        InstCount pos = A0;
        while (pos < A1) {
            const InstCount runEnd = (r + 1 < tr.numRuns())
                                         ? tr.runPos(r + 1)
                                         : tr.size();
            const InstCount segEnd = std::min(runEnd, A1);
            Addr pc = tr.runPC(r) + instsToBytes(pos - tr.runPos(r));
            while (pos < segEnd) {
                // Next position whose fetch leaves the current line.
                InstCount nf;
                const Addr line = pc & lineMask;
                if (line != last_line)
                    nf = pos;
                else
                    nf = pos + (line + lineBytes - pc) / instBytes;
                if (nf >= segEnd) {
                    // No further fetch this segment: drain mem
                    // events up to the segment end and move on.
                    while (m < tr.numMemEvents() &&
                           tr.memPos(m) < segEnd) {
                        mem->dataAccess(tr.memPC(m), tr.memEvAddr(m),
                                        tr.memIsStore(m),
                                        cycle0 + (tr.memPos(m) - q0) + 1);
                        ++m;
                    }
                    pos = segEnd;
                    break;
                }
                // Mem events strictly before the fetch position
                // precede it; one *at* the fetch position follows the
                // fetch (instFetch, then dataAccess, per instruction)
                // — it drains on the next iteration or at segment end.
                while (m < tr.numMemEvents() && tr.memPos(m) < nf) {
                    mem->dataAccess(tr.memPC(m), tr.memEvAddr(m),
                                    tr.memIsStore(m),
                                    cycle0 + (tr.memPos(m) - q0) + 1);
                    ++m;
                }
                pc += instsToBytes(nf - pos);
                pos = nf;
                mem->instFetch(pc, cycle0 + (pos - q0) + 1);
                last_line = pc & lineMask;
                ++fetches;
            }
            if (pos == runEnd) {
                // The instruction ending this run is a taken transfer
                // (or the trace's last): after a taken transfer the
                // line register resets so the target refetches.
                if (tr.taken(runEnd - 1))
                    last_line = invalidAddr;
                ++r;
            }
        }

        // --- branch pass: builder catch-up + commit training --------
        InstCount gapStart = A0;
        while (b < tr.numBranchEvents() && tr.branchPos(b) < A1) {
            const InstCount bpos = tr.branchPos(b);
            if (bpos > gapStart)
                builder->retireSequentialRange(gapNextPC,
                                               bpos - gapStart);
            const StaticInst &si = image[tr.siIndex(bpos)];
            ELFSIM_ASSERT(si.pc ==
                              gapNextPC + instsToBytes(bpos - gapStart),
                          "branch-pass PC tracking diverged");
            const bool taken = tr.branchTaken(b);
            const Addr target = tr.branchTarget(b);
            // Train exactly like commit of an unpredicted branch:
            // invalid TAGE/ITTAGE predictions make commitBranch
            // re-predict on the architectural history first.
            bank->commitBranch(si.pc, si.branch, taken, target,
                               TagePrediction{}, IttagePrediction{},
                               historyVisible(si));
            controller->coupledPredictors().trainCommit(
                si.pc, si.branch, taken, target, FetchMode::Coupled);
            if (taken) {
                // Model the DCF probing the BTB at the target: warms
                // hit/promotion state for the upcoming regions.
                btbHier->lookup(target);
            }
            builder->retire(si, taken, target);
            ++b;
            gapStart = bpos + 1;
            gapNextPC = target; // recorded next-PC either way
        }
        if (A1 > gapStart) {
            builder->retireSequentialRange(gapNextPC, A1 - gapStart);
            gapNextPC += instsToBytes(A1 - gapStart);
        }

        // Chunk done: publish the per-instruction end-of-chunk state
        // (one synthetic cycle per instruction — the caches' absolute
        // readyCycle/LRU bookkeeping needs a clock shared with the
        // detailed windows).
        coreStats.cycles = cycle0 + c1;
        lastCommitOracleIdx = idx0 + c1;
        i = c1;
    }

    warmStats_.kernelInsts += kn;
    warmStats_.branchEvents += b - bAtEntry;
    warmStats_.linesTouched += fetches;
    warmStats_.kernelSeconds +=
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      wallStart)
            .count();
}

} // namespace elfsim
