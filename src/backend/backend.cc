#include "backend/backend.hh"

#include <algorithm>
#include <bit>

#include "common/logging.hh"

namespace elfsim {

bool
Backend::laterCycle(const CompletionEvent &a, const CompletionEvent &b)
{
    return a.cycle > b.cycle;
}

Backend::Backend(const BackendParams &params, MemHierarchy &mem,
                 MemDepPredictor &mdp)
    : params(params), mem(mem), mdp(mdp),
      renamePipe(params.robEntries), rob(params.robEntries),
      lsq(params.lsqEntries), wakeHead(params.robEntries, -1),
      wakeNext(std::size_t(params.robEntries) * 3, -1),
      pendingSrcs(params.robEntries, 0),
      readyBits((std::size_t(params.robEntries) + 63) / 64, 0),
      lastProducer(numArchRegs, 0), lastProducerPos(numArchRegs, 0)
{
    // Stale events of squashed instructions stay queued until their
    // cycle passes (validation drops them), so size the heap for the
    // issue rate times the longest completion latency, not just for
    // the live ROB — steady state must never reallocate.
    compHeap.reserve(std::size_t(params.robEntries) * 16);
    compDue.reserve(std::size_t(params.robEntries) * 16);
}

bool
Backend::canAccept(unsigned n) const
{
    return rob.size() + renamePipe.size() + n <= params.robEntries;
}

void
Backend::accept(DynInst di, Cycle now)
{
    di.readyAt = now + params.decodeToDispatch;
    ELFSIM_ASSERT(renamePipe.empty() || renamePipe.back().seq < di.seq,
                  "out-of-order accept");
    renamePipe.push(std::move(di));
}

DynInst *
Backend::findBySeq(SeqNum seq)
{
    return findSeqInQueue(rob, seq);
}

const DynInst *
Backend::findBySeq(SeqNum seq) const
{
    return const_cast<Backend *>(this)->findBySeq(seq);
}

void
Backend::setReady(std::size_t pos)
{
    readyBits[pos / 64] |= std::uint64_t(1) << (pos % 64);
}

void
Backend::clearReady(std::size_t pos)
{
    readyBits[pos / 64] &= ~(std::uint64_t(1) << (pos % 64));
}

void
Backend::wake(std::uint32_t producer_pos)
{
    for (std::int32_t n = wakeHead[producer_pos]; n >= 0; n = wakeNext[n]) {
        const std::uint32_t c = std::uint32_t(n) / 3;
        ELFSIM_ASSERT(pendingSrcs[c] > 0,
                      "wakeup of slot %u with no pending source", c);
        if (--pendingSrcs[c] == 0)
            setReady(c);
    }
    wakeHead[producer_pos] = -1;
}

Cycle
Backend::execLatency(const DynInst &di, Cycle now)
{
    switch (di.si->cls) {
      case InstClass::IntMul:
        return params.mulLatency;
      case InstClass::IntDiv:
        return params.divLatency;
      case InstClass::FloatOp:
        return params.fpLatency;
      case InstClass::Load:
        // Address generated at EXE; the access starts there. The
        // load-to-use latency comes from the hierarchy — wrong-path
        // loads access (and pollute) it too.
        return mem.dataAccess(di.pc(), di.memAddr, false,
                              now + params.issueToExec);
      default:
        return 1;
    }
}

void
Backend::dispatch(Cycle now)
{
    unsigned n = 0;
    while (n < params.dispatchWidth && !renamePipe.empty() &&
           renamePipe.front().readyAt <= now) {
        if (rob.size() >= params.robEntries) {
            ++st.robFullCycles;
            return;
        }
        if (iqCount >= params.iqEntries)
            return;
        DynInst &front = renamePipe.front();
        if (front.si->isMemInst() && lsq.size() >= params.lsqEntries)
            return;

        DynInst di = renamePipe.pop();
        ++n;

        // Record producers (seq + ROB slot) at rename.
        for (unsigned s = 0; s < 2; ++s) {
            const RegIndex r = di.si->srcRegs[s];
            const SeqNum p = r < numArchRegs ? lastProducer[r] : 0;
            const std::uint32_t pos =
                r < numArchRegs ? lastProducerPos[r] : 0;
            if (s == 0) {
                di.srcProducer0 = p;
                di.srcPos0 = pos;
            } else {
                di.srcProducer1 = p;
                di.srcPos1 = pos;
            }
        }

        // Memory-dependence filter: the load waits for the youngest
        // older in-flight store with the recorded PC.
        if (di.isLoad()) {
            const Addr storePC = mdp.storeFor(di.pc());
            if (storePC != invalidAddr) {
                for (std::size_t i = rob.size(); i-- > 0;) {
                    const DynInst &s = rob.at(i);
                    if (s.isStore() && s.pc() == storePC &&
                        !s.completed) {
                        di.waitStore = s.seq;
                        di.waitStorePos =
                            std::uint32_t(rob.posOf(i));
                        break;
                    }
                }
            }
        }

        const SeqNum seq = di.seq;
        di.dispatched = true;
        const std::uint32_t pos =
            std::uint32_t(rob.pushPos(std::move(di)));
        const DynInst &placed = rob.atPos(pos);
        if (placed.si->destReg < numArchRegs) {
            lastProducer[placed.si->destReg] = seq;
            lastProducerPos[placed.si->destReg] = pos;
        }
        if (placed.si->isMemInst())
            lsq.push({seq, pos});

        // Link onto every producer that has not completed; a slot
        // that no longer holds the producer's seq means it committed
        // (a squashed producer implies this consumer was squashed
        // too), so that source is already resolved.
        wakeHead[pos] = -1;
        std::uint8_t waiting = 0;
        const auto waitOn = [&](SeqNum p, std::uint32_t p_pos,
                                unsigned s) {
            if (p == 0 || rob.atPos(p_pos).seq != p ||
                rob.atPos(p_pos).completed)
                return;
            const std::int32_t node = std::int32_t(3 * pos + s);
            wakeNext[node] = wakeHead[p_pos];
            wakeHead[p_pos] = node;
            ++waiting;
        };
        waitOn(placed.srcProducer0, placed.srcPos0, 0);
        waitOn(placed.srcProducer1, placed.srcPos1, 1);
        waitOn(placed.waitStore, placed.waitStorePos, 2);
        pendingSrcs[pos] = waiting;
        if (waiting == 0)
            setReady(pos);
        ++iqCount;
    }
}

void
Backend::issue(Cycle now)
{
    if (rob.empty())
        return;
    unsigned issued = 0;
    unsigned alu = 0, muldiv = 0, ldst = 0, simd = 0;

    // Try one ready slot; false once the issue width is used up.
    const auto tryIssue = [&](std::size_t pos) {
        DynInst &di = rob.atPos(pos);
        bool fuOk = false;
        switch (di.si->cls) {
          case InstClass::IntMul:
          case InstClass::IntDiv:
            fuOk = muldiv < params.numMulDiv && alu < params.numAlu;
            if (fuOk) {
                ++muldiv;
                ++alu;
            }
            break;
          case InstClass::FloatOp:
            fuOk = simd < params.numSimd;
            if (fuOk)
                ++simd;
            break;
          case InstClass::Load:
          case InstClass::Store:
            fuOk = ldst < params.numLdSt;
            if (fuOk)
                ++ldst;
            break;
          default: // ALU, branches, nops
            fuOk = alu < params.numAlu;
            if (fuOk)
                ++alu;
            break;
        }
        if (!fuOk)
            return true;

        di.issued = true;
        di.waitStore = 0; // resolved; the deadlock dump shows 0
        clearReady(pos);
        --iqCount;
        const Cycle lat = di.isStore() ? 1 : execLatency(di, now);
        di.completeCycle = now + params.issueToExec + lat - 1;
        compHeap.push_back(
            {di.completeCycle, di.seq, std::uint32_t(pos)});
        std::push_heap(compHeap.begin(), compHeap.end(), laterCycle);
        return ++issued < params.issueWidth;
    };

    // Visit the ready slots in [lo, hi) in ring order; false once
    // tryIssue stops. Bits past robEntries are never set.
    const auto scan = [&](std::size_t lo, std::size_t hi) {
        for (std::size_t w = lo / 64; w * 64 < hi; ++w) {
            std::uint64_t bits = readyBits[w];
            if (w == lo / 64)
                bits &= ~std::uint64_t(0) << (lo % 64);
            if (hi - w * 64 < 64)
                bits &= (std::uint64_t(1) << (hi - w * 64)) - 1;
            for (; bits != 0; bits &= bits - 1) {
                if (!tryIssue(w * 64 + std::size_t(std::countr_zero(bits))))
                    return false;
            }
        }
        return true;
    };

    // Age order: the ROB head to the end of the ring, then the
    // wrapped part. The oldest issueWidth ready instructions that
    // pass the FU checks issue — the same set an in-order poll of
    // the whole IQ selects.
    const std::size_t head = rob.posOf(0);
    if (scan(head, params.robEntries))
        scan(0, head);
}

void
Backend::complete(Cycle now, Redirect &redirect)
{
    // Pop every event due by now. The batch is re-sorted to seq order
    // so instructions complete in exactly the ROB (age) order the old
    // full-ROB scan used.
    compDue.clear();
    while (!compHeap.empty() && compHeap.front().cycle <= now) {
        std::pop_heap(compHeap.begin(), compHeap.end(), laterCycle);
        compDue.push_back(compHeap.back());
        compHeap.pop_back();
    }
    if (compDue.empty())
        return;
    std::sort(compDue.begin(), compDue.end(),
              [](const CompletionEvent &a, const CompletionEvent &b) {
                  return a.seq < b.seq;
              });

    for (const CompletionEvent &ev : compDue) {
        // Validate against the live ROB: squashes leave ghost events,
        // and a squashed-then-replayed instruction can even reuse the
        // same seq and slot with a different completion cycle. Any
        // mismatch means this event's instruction is gone; its
        // replacement (if any) carries its own event.
        if (!rob.livePos(ev.pos))
            continue;
        DynInst &di = rob.atPos(ev.pos);
        if (di.seq != ev.seq || !di.issued || di.completed ||
            di.completeCycle > now)
            continue;
        di.completed = true;
        wake(ev.pos);

        // Store-to-load order violation check: a younger load that
        // already executed with an overlapping address speculated
        // past this store.
        if (di.isStore() && !di.wrongPath) {
            for (std::size_t i = lowerBoundSeq(lsq, di.seq + 1);
                 i < lsq.size(); ++i) {
                const DynInst &ld = rob.atPos(lsq.at(i).pos);
                if (!ld.isLoad() || !ld.completed || ld.wrongPath)
                    continue;
                if (ld.memAddr / 8 == di.memAddr / 8) {
                    mdp.train(ld.pc(), di.pc());
                    ++st.memOrderFlushes;
                    Redirect req;
                    req.kind = RedirectKind::MemOrder;
                    req.survivorSeq = ld.seq - 1;
                    req.targetPC = ld.pc();
                    req.oracleCursor = ld.oracleIdx;
                    req.atCycle = now;
                    mergeRedirect(redirect, req);
                    break;
                }
            }
        }

        // Branch resolution.
        if (di.isBranch() && !di.wrongPath &&
            (di.mispredict || di.fetchStalled)) {
            Redirect req;
            req.kind = RedirectKind::ExecMispredict;
            req.survivorSeq = di.seq;
            req.targetPC = di.actualNext;
            req.oracleCursor = di.oracleIdx + 1;
            req.atCycle = now;
            mergeRedirect(redirect, req);
        }
    }
}

void
Backend::commit(Cycle now)
{
    unsigned n = 0;
    while (n < params.commitWidth && !rob.empty()) {
        DynInst &head = rob.front();
        if (!head.completed)
            break;
        // A flush triggered by this instruction has not been applied
        // yet (ELF payload-pending): it must not retire.
        if (head.flushPending)
            break;
        ELFSIM_ASSERT(!head.wrongPath,
                      "wrong-path instruction reached commit: seq=%llu "
                      "pc=0x%llx mode=%d stalled=%d haspred=%d "
                      "predTaken=%d %s",
                      (unsigned long long)head.seq,
                      (unsigned long long)head.pc(), int(head.mode),
                      int(head.fetchStalled), int(head.hasPrediction),
                      int(head.predTaken), head.si->disasm().c_str());

        if (head.isStore())
            mem.dataAccess(head.pc(), head.memAddr, true, now);

        ++st.committed;
        if (head.mode == FetchMode::Coupled)
            ++st.coupledCommitted;
        if (head.isBranch()) {
            ++st.committedBranches;
            const bool mispredicted =
                head.wasMispredicted || head.mispredict ||
                head.taken != head.predTaken;
            if (head.si->branch == BranchKind::CondDirect) {
                if (mispredicted)
                    ++st.condMispredicts;
            } else if (mispredicted) {
                ++st.targetMispredicts;
            }
        }

        if (commitHook)
            commitHook(head);

        if (!lsq.empty() && lsq.front().seq == head.seq)
            lsq.dropFront();
        rob.dropFront();
        ++n;
    }
}

void
Backend::tick(Cycle now, Redirect &redirect)
{
    commit(now);
    complete(now, redirect);
    issue(now);
    dispatch(now);
}

void
Backend::squashYoungerThan(SeqNum survivor_seq)
{
    while (!renamePipe.empty() &&
           renamePipe.back().seq > survivor_seq)
        renamePipe.popBack(1);
    while (!rob.empty() && rob.back().seq > survivor_seq) {
        if (!rob.back().issued) {
            clearReady(rob.posOf(rob.size() - 1));
            --iqCount;
        }
        rob.popBack(1);
    }
    while (!lsq.empty() && lsq.back().seq > survivor_seq)
        lsq.popBack(1);

    // Only dispatched (ROB) instructions define producers: rename-
    // pipe instructions re-register their destinations when they
    // dispatch, in order — pre-registering them here would make
    // older instructions read younger (or their own) producers.
    // The same pass pops the squashed consumers — now dead slots,
    // and the newest links — off each surviving producer's wake
    // list, so a later occupant of a squashed slot is never woken
    // by a producer it does not wait on.
    std::fill(lastProducer.begin(), lastProducer.end(), 0);
    std::fill(lastProducerPos.begin(), lastProducerPos.end(), 0);
    rob.forEachPos([&](const DynInst &di, std::size_t pos) {
        if (di.si->destReg < numArchRegs) {
            lastProducer[di.si->destReg] = di.seq;
            lastProducerPos[di.si->destReg] = std::uint32_t(pos);
        }
        std::int32_t &h = wakeHead[pos];
        while (h >= 0 && !rob.livePos(std::size_t(h) / 3))
            h = wakeNext[h];
    });
}

bool
Backend::atRobHead(SeqNum seq) const
{
    return !rob.empty() && rob.front().seq == seq;
}

DynInst *
Backend::findInFlightMutable(SeqNum seq)
{
    if (DynInst *di = findBySeq(seq))
        return di;
    return findSeqInQueue(renamePipe, seq);
}

} // namespace elfsim
