/**
 * @file
 * Polling back-end: the scheduler Backend used before event-driven
 * wakeup. Every cycle it re-polls each IQ entry's producers in age
 * order (sourcesReady + in-order IQ scan), and it searches a vector
 * LSQ from the oldest entry. Production code never uses it; it is the
 * specification test_backend's differential cases check Backend's
 * wakeup/ready-set select against, cycle by cycle.
 */

#ifndef ELFSIM_TESTS_BACKEND_POLLING_BACKEND_HH
#define ELFSIM_TESTS_BACKEND_POLLING_BACKEND_HH

#include <algorithm>
#include <vector>

#include "backend/backend.hh"

namespace elfsim {

class PollingBackend
{
  public:
    PollingBackend(const BackendParams &params, MemHierarchy &mem,
                   MemDepPredictor &mdp)
        : params(params), mem(mem), mdp(mdp),
          renamePipe(params.robEntries), rob(params.robEntries),
          lastProducer(numArchRegs, 0), lastProducerPos(numArchRegs, 0)
    {
    }

    bool
    canAccept(unsigned n) const
    {
        return rob.size() + renamePipe.size() + n <= params.robEntries;
    }

    void
    accept(DynInst di, Cycle now)
    {
        di.readyAt = now + params.decodeToDispatch;
        renamePipe.push(std::move(di));
    }

    void
    tick(Cycle now, Redirect &redirect)
    {
        commit(now);
        complete(now, redirect);
        issue(now);
        dispatch(now);
    }

    void
    squashYoungerThan(SeqNum survivor_seq)
    {
        while (!renamePipe.empty() &&
               renamePipe.back().seq > survivor_seq)
            renamePipe.popBack(1);
        while (!rob.empty() && rob.back().seq > survivor_seq)
            rob.popBack(1);
        const auto squashed = [&](const SeqSlot &s) {
            return s.seq > survivor_seq;
        };
        iq.erase(std::remove_if(iq.begin(), iq.end(), squashed),
                 iq.end());
        lsq.erase(std::remove_if(lsq.begin(), lsq.end(), squashed),
                  lsq.end());
        std::fill(lastProducer.begin(), lastProducer.end(), 0);
        std::fill(lastProducerPos.begin(), lastProducerPos.end(), 0);
        rob.forEachPos([&](const DynInst &di, std::size_t pos) {
            if (di.si->destReg < numArchRegs) {
                lastProducer[di.si->destReg] = di.seq;
                lastProducerPos[di.si->destReg] = std::uint32_t(pos);
            }
        });
    }

    template <typename Fn>
    void
    forEachInFlight(Fn &&fn) const
    {
        rob.forEach([&](const DynInst &di) { fn(di); });
        renamePipe.forEach([&](const DynInst &di) { fn(di); });
    }

    void setCommitHook(Backend::CommitHook hook) { commitHook = hook; }
    const BackendStats &stats() const { return st; }
    std::size_t iqSize() const { return iq.size(); }
    std::size_t lsqSize() const { return lsq.size(); }

  private:
    struct SeqSlot
    {
        SeqNum seq = 0;
        std::uint32_t pos = 0;
    };

    struct CompletionEvent
    {
        Cycle cycle = 0;
        SeqNum seq = 0;
        std::uint32_t pos = 0;
    };

    static bool
    laterCycle(const CompletionEvent &a, const CompletionEvent &b)
    {
        return a.cycle > b.cycle;
    }

    bool
    sourcesReady(const DynInst &di) const
    {
        if (di.srcProducer0 != 0) {
            const DynInst &p = rob.atPos(di.srcPos0);
            if (p.seq == di.srcProducer0 && !p.completed)
                return false;
        }
        if (di.srcProducer1 != 0) {
            const DynInst &p = rob.atPos(di.srcPos1);
            if (p.seq == di.srcProducer1 && !p.completed)
                return false;
        }
        return true;
    }

    Cycle
    execLatency(const DynInst &di, Cycle now)
    {
        switch (di.si->cls) {
          case InstClass::IntMul:
            return params.mulLatency;
          case InstClass::IntDiv:
            return params.divLatency;
          case InstClass::FloatOp:
            return params.fpLatency;
          case InstClass::Load:
            return mem.dataAccess(di.pc(), di.memAddr, false,
                                  now + params.issueToExec);
          default:
            return 1;
        }
    }

    void
    dispatch(Cycle now)
    {
        unsigned n = 0;
        while (n < params.dispatchWidth && !renamePipe.empty() &&
               renamePipe.front().readyAt <= now) {
            if (rob.size() >= params.robEntries) {
                ++st.robFullCycles;
                return;
            }
            if (iq.size() >= params.iqEntries)
                return;
            if (renamePipe.front().si->isMemInst() &&
                lsq.size() >= params.lsqEntries)
                return;

            DynInst di = renamePipe.pop();
            ++n;
            const RegIndex r0 = di.si->srcRegs[0];
            const RegIndex r1 = di.si->srcRegs[1];
            if (r0 < numArchRegs) {
                di.srcProducer0 = lastProducer[r0];
                di.srcPos0 = lastProducerPos[r0];
            }
            if (r1 < numArchRegs) {
                di.srcProducer1 = lastProducer[r1];
                di.srcPos1 = lastProducerPos[r1];
            }
            if (di.isLoad()) {
                const Addr storePC = mdp.storeFor(di.pc());
                if (storePC != invalidAddr) {
                    for (std::size_t i = rob.size(); i-- > 0;) {
                        const DynInst &s = rob.at(i);
                        if (s.isStore() && s.pc() == storePC &&
                            !s.completed) {
                            di.waitStore = s.seq;
                            di.waitStorePos = std::uint32_t(rob.posOf(i));
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
                lsq.push_back({seq, pos});
            iq.push_back({seq, pos});
        }
    }

    void
    issue(Cycle now)
    {
        unsigned issued = 0;
        unsigned alu = 0, muldiv = 0, ldst = 0, simd = 0;
        std::size_t w = 0, r = 0;
        const std::size_t n = iq.size();
        for (; r < n && issued < params.issueWidth; ++r) {
            const SeqSlot slot = iq[r];
            DynInst *di = &rob.atPos(slot.pos);
            if (!sourcesReady(*di)) {
                iq[w++] = slot;
                continue;
            }
            if (di->isLoad() && di->waitStore != 0) {
                const DynInst &dep = rob.atPos(di->waitStorePos);
                if (dep.seq == di->waitStore && !dep.completed) {
                    iq[w++] = slot;
                    continue;
                }
                di->waitStore = 0;
            }

            bool fuOk = false;
            switch (di->si->cls) {
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
              default:
                fuOk = alu < params.numAlu;
                if (fuOk)
                    ++alu;
                break;
            }
            if (!fuOk) {
                iq[w++] = slot;
                continue;
            }

            di->issued = true;
            const Cycle lat = di->isStore() ? 1 : execLatency(*di, now);
            di->completeCycle = now + params.issueToExec + lat - 1;
            compHeap.push_back({di->completeCycle, slot.seq, slot.pos});
            std::push_heap(compHeap.begin(), compHeap.end(), laterCycle);
            ++issued;
        }
        for (; r < n; ++r)
            iq[w++] = iq[r];
        iq.resize(w);
    }

    void
    complete(Cycle now, Redirect &redirect)
    {
        std::vector<CompletionEvent> due;
        while (!compHeap.empty() && compHeap.front().cycle <= now) {
            std::pop_heap(compHeap.begin(), compHeap.end(), laterCycle);
            due.push_back(compHeap.back());
            compHeap.pop_back();
        }
        std::sort(due.begin(), due.end(),
                  [](const CompletionEvent &a, const CompletionEvent &b) {
                      return a.seq < b.seq;
                  });
        for (const CompletionEvent &ev : due) {
            if (!rob.livePos(ev.pos))
                continue;
            DynInst &di = rob.atPos(ev.pos);
            if (di.seq != ev.seq || !di.issued || di.completed ||
                di.completeCycle > now)
                continue;
            di.completed = true;

            if (di.isStore() && !di.wrongPath) {
                for (const SeqSlot &l : lsq) {
                    if (l.seq <= di.seq)
                        continue;
                    const DynInst &ld = rob.atPos(l.pos);
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
    commit(Cycle now)
    {
        unsigned n = 0;
        while (n < params.commitWidth && !rob.empty()) {
            DynInst &head = rob.front();
            if (!head.completed || head.flushPending)
                break;
            if (head.isStore())
                mem.dataAccess(head.pc(), head.memAddr, true, now);
            ++st.committed;
            if (commitHook)
                commitHook(head);
            if (!lsq.empty() && lsq.front().seq == head.seq)
                lsq.erase(lsq.begin());
            rob.dropFront();
            ++n;
        }
    }

    BackendParams params;
    MemHierarchy &mem;
    MemDepPredictor &mdp;
    Backend::CommitHook commitHook;

    BoundedQueue<DynInst> renamePipe;
    BoundedQueue<DynInst> rob;
    std::vector<SeqSlot> iq;
    std::vector<SeqSlot> lsq;
    std::vector<CompletionEvent> compHeap;
    std::vector<SeqNum> lastProducer;
    std::vector<std::uint32_t> lastProducerPos;
    BackendStats st;
};

} // namespace elfsim

#endif // ELFSIM_TESTS_BACKEND_POLLING_BACKEND_HH
