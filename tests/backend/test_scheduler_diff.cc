/**
 * Differential test of the back-end scheduler: seeded random streams
 * run through Backend (wake lists + ready bitmap) and PollingBackend
 * (the polling select it replaced) in lockstep. Every cycle both must
 * issue the same seqs with the same completion cycles, complete and
 * commit the same instructions, and raise the same redirects.
 */

#include <gtest/gtest.h>

#include <vector>

#include "backend/backend.hh"
#include "common/random.hh"
#include "polling_backend.hh"

using namespace elfsim;

namespace {

/**
 * A random static loop body plus per-dynamic-instance data. Dynamic
 * instance i runs body[i % size] with seq i + 1, so replaying from a
 * squash point reuses the same seqs (and, since the ROB refills in
 * order, the same ROB slots).
 */
struct Stream
{
    std::vector<StaticInst> body;
    std::vector<Addr> addr;
    std::vector<bool> mispredict;

    Stream(std::uint64_t seed, std::size_t insts)
    {
        Rng rng(seed);
        body.resize(64);
        for (std::size_t i = 0; i < body.size(); ++i) {
            StaticInst &si = body[i];
            si.pc = 0x4000 + 4 * i;
            const unsigned pick = unsigned(rng.below(100));
            si.cls = pick < 34 ? InstClass::IntAlu
                     : pick < 42 ? InstClass::IntMul
                     : pick < 46 ? InstClass::IntDiv
                     : pick < 56 ? InstClass::FloatOp
                     : pick < 76 ? InstClass::Load
                     : pick < 86 ? InstClass::Store
                     : pick < 94 ? InstClass::Branch
                                 : InstClass::Nop;
            if (si.cls == InstClass::Branch) {
                si.branch = BranchKind::CondDirect;
                si.directTarget = si.pc + 8;
            }
            if (si.cls != InstClass::Store && si.cls != InstClass::Branch &&
                si.cls != InstClass::Nop)
                si.destReg = RegIndex(rng.below(16));
            if (si.cls != InstClass::Nop) {
                si.srcRegs[0] = RegIndex(rng.below(16));
                // Both sources from one producer, now and then.
                si.srcRegs[1] = rng.chance(0.15) ? si.srcRegs[0]
                                                 : RegIndex(rng.below(17));
            }
        }
        addr.resize(insts);
        mispredict.resize(insts);
        for (std::size_t i = 0; i < insts; ++i) {
            // Mostly a few hot lines (aliasing loads and stores), and
            // now and then a cold line for a long-latency miss.
            addr[i] = rng.chance(0.05) ? 0x100000 + 64 * rng.below(4096)
                                       : 0x20000 + 8 * rng.below(64);
            mispredict[i] = rng.chance(0.03);
        }
    }

    DynInst
    make(std::size_t i) const
    {
        DynInst di;
        di.si = &body[i % body.size()];
        di.seq = SeqNum(i + 1);
        di.oracleIdx = di.seq;
        di.memAddr = di.si->isMemInst() ? addr[i] : invalidAddr;
        di.taken = false;
        di.actualNext = di.si->nextPC();
        di.mispredict = di.si->isBranchInst() && mispredict[i];
        return di;
    }

    /** Train @a mdp with the first load and the store just before
     *  it in the body. */
    void
    trainPair(MemDepPredictor &mdp) const
    {
        Addr store = invalidAddr;
        for (const StaticInst &si : body) {
            if (si.isStore())
                store = si.pc;
            else if (si.isLoad() && store != invalidAddr) {
                mdp.train(si.pc, store);
                return;
            }
        }
    }
};

struct Snap
{
    SeqNum seq;
    bool dispatched, issued, completed;
    Cycle completeCycle;
    bool operator==(const Snap &) const = default;
};

template <typename B>
std::vector<Snap>
snapshot(const B &be)
{
    std::vector<Snap> s;
    be.forEachInFlight([&](const DynInst &di) {
        s.push_back({di.seq, di.dispatched, di.issued, di.completed,
                     di.issued ? di.completeCycle : 0});
    });
    return s;
}

/** (seq, completion cycle) of every entry of @a cur that had not
 *  issued in @a prev. Both are in program order. */
std::vector<std::pair<SeqNum, Cycle>>
newlyIssued(const std::vector<Snap> &prev, const std::vector<Snap> &cur)
{
    std::vector<std::pair<SeqNum, Cycle>> out;
    std::size_t p = 0;
    for (const Snap &c : cur) {
        while (p < prev.size() && prev[p].seq < c.seq)
            ++p;
        const bool was = p < prev.size() && prev[p].seq == c.seq &&
                         prev[p].issued;
        if (c.issued && !was)
            out.emplace_back(c.seq, c.completeCycle);
    }
    return out;
}

struct DiffCounts
{
    std::uint64_t issued = 0, committed = 0, squashes = 0;
    std::uint64_t memOrder = 0, mispredicts = 0, replays = 0;
};

DiffCounts
runDifferential(unsigned rob_entries, std::uint64_t seed)
{
    const std::size_t insts = 3000;
    BackendParams bp;
    bp.robEntries = rob_entries;
    bp.iqEntries = std::max(4u, rob_entries / 2);
    bp.lsqEntries = std::max(4u, rob_entries * 2 / 5);

    const Stream stream(seed, insts);
    MemHierarchy memF, memR;
    MemDepPredictor mdpF, mdpR;
    stream.trainPair(mdpF);
    stream.trainPair(mdpR);
    Backend fast(bp, memF, mdpF);
    PollingBackend ref(bp, memR, mdpR);
    std::vector<SeqNum> commitF, commitR;
    fast.setCommitHook([&](const DynInst &di) { commitF.push_back(di.seq); });
    ref.setCommitHook([&](const DynInst &di) { commitR.push_back(di.seq); });

    DiffCounts n;
    std::vector<bool> redirected(insts, false);
    std::vector<std::uint32_t> fedCount(insts, 0);
    Rng rng(seed * 0x9e3779b97f4a7c15ull + 1);
    std::size_t next = 0;
    std::vector<Snap> prev;
    for (Cycle cycle = 1; commitF.size() < insts && cycle < 500000;
         ++cycle) {
        const unsigned burst = unsigned(rng.below(bp.dispatchWidth + 1));
        for (unsigned k = 0; k < burst && next < insts &&
                             fast.canAccept(1);
             ++k, ++next) {
            EXPECT_TRUE(ref.canAccept(1));
            DynInst di = stream.make(next);
            // A branch that already redirected was repaired.
            di.mispredict = di.mispredict && !redirected[next];
            n.replays += fedCount[next]++ > 0;
            fast.accept(di, cycle);
            ref.accept(di, cycle);
        }

        Redirect rf, rr;
        fast.tick(cycle, rf);
        ref.tick(cycle, rr);

        const std::vector<Snap> curF = snapshot(fast);
        const std::vector<Snap> curR = snapshot(ref);
        const auto issF = newlyIssued(prev, curF);
        const auto issR = newlyIssued(prev, curR);
        EXPECT_EQ(issF, issR) << "issued set, cycle " << cycle;
        EXPECT_EQ(curF, curR) << "in-flight state, cycle " << cycle;
        EXPECT_EQ(commitF, commitR) << "commits, cycle " << cycle;
        EXPECT_EQ(fast.iqSize(), ref.iqSize()) << "cycle " << cycle;
        EXPECT_EQ(fast.lsqSize(), ref.lsqSize()) << "cycle " << cycle;
        EXPECT_EQ(rf.kind, rr.kind) << "cycle " << cycle;
        EXPECT_EQ(rf.survivorSeq, rr.survivorSeq) << "cycle " << cycle;
        if (::testing::Test::HasFailure())
            return n;
        n.issued += issF.size();

        // Squash on a redirect, or at a random in-flight point, and
        // replay from the survivor with the same seqs.
        SeqNum survivor = 0;
        bool squash = false;
        if (rf.pending()) {
            survivor = rf.survivorSeq;
            squash = true;
            if (rf.kind == RedirectKind::ExecMispredict) {
                redirected[survivor - 1] = true;
                ++n.mispredicts;
            } else {
                ++n.memOrder;
            }
        } else if (rng.chance(0.02)) {
            const SeqNum oldest = commitF.empty() ? 0 : commitF.back();
            survivor = oldest + rng.below(next - oldest + 1);
            squash = true;
        }
        if (squash) {
            fast.squashYoungerThan(survivor);
            ref.squashYoungerThan(survivor);
            next = std::size_t(survivor);
            ++n.squashes;
        }
        prev = snapshot(fast);
    }
    EXPECT_EQ(commitF.size(), insts);
    EXPECT_EQ(fast.stats().committed, ref.stats().committed);
    EXPECT_EQ(fast.stats().memOrderFlushes, ref.stats().memOrderFlushes);
    EXPECT_EQ(fast.stats().robFullCycles, ref.stats().robFullCycles);
    n.committed = commitF.size();
    return n;
}

class SchedulerDiff : public ::testing::TestWithParam<unsigned>
{};

} // namespace

TEST_P(SchedulerDiff, WakeupSelectMatchesPollingSelect)
{
    DiffCounts total;
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        const DiffCounts n = runDifferential(GetParam(), seed);
        ASSERT_FALSE(HasFailure()) << "robEntries=" << GetParam()
                                   << " seed=" << seed;
        total.issued += n.issued;
        total.committed += n.committed;
        total.squashes += n.squashes;
        total.memOrder += n.memOrder;
        total.mispredicts += n.mispredicts;
        total.replays += n.replays;
    }
    // The streams must actually exercise what the test is about.
    EXPECT_GT(total.issued, total.committed);
    EXPECT_GT(total.squashes, 20u);
    EXPECT_GT(total.memOrder, 0u);
    EXPECT_GT(total.mispredicts, 0u);
    EXPECT_GT(total.replays, 100u);
}

// 8: the ring wraps constantly; 100: not a multiple of 64, so the
// ready bitmap's last word is partial; 256: the paper's ROB.
INSTANTIATE_TEST_SUITE_P(RobSizes, SchedulerDiff,
                         ::testing::Values(8u, 100u, 256u));
