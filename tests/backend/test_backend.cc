#include <gtest/gtest.h>

#include <deque>

#include "backend/backend.hh"
#include "polling_backend.hh"
#include "workload/program_builder.hh"

using namespace elfsim;

namespace {

/** A small rig that feeds instructions straight into the back-end. */
struct Rig
{
    Program prog;
    MemHierarchy mem;
    MemDepPredictor mdp;
    Backend be;
    SeqNum nextSeq = 1;
    std::vector<DynInst> committed;

    explicit Rig(Program p, BackendParams bp = {})
        : prog(std::move(p)), mem(), mdp(), be(bp, mem, mdp)
    {
        be.setCommitHook([this](const DynInst &di) {
            committed.push_back(di);
        });
    }

    DynInst
    makeInst(const StaticInst *si, Addr mem_addr = invalidAddr)
    {
        DynInst di;
        di.si = si;
        di.seq = nextSeq++;
        di.oracleIdx = di.seq;
        di.memAddr = mem_addr;
        di.taken = false;
        di.actualNext = si->nextPC();
        return di;
    }

    /** Run n cycles starting from `cycle`. */
    Redirect
    run(Cycle &cycle, unsigned n)
    {
        Redirect r;
        for (unsigned i = 0; i < n; ++i)
            be.tick(++cycle, r);
        return r;
    }
};

Program
aluProgram(unsigned chain_len)
{
    ProgramBuilder b;
    b.beginBlock();
    // A dependency chain: each op reads the previous destination.
    for (unsigned i = 0; i < chain_len; ++i)
        b.addOp(InstClass::IntAlu, 1, 1);
    b.endJump(0);
    return b.finalize("alu_chain");
}

Program
independentProgram(unsigned n)
{
    ProgramBuilder b;
    b.beginBlock();
    for (unsigned i = 0; i < n; ++i)
        b.addOp(InstClass::IntAlu, RegIndex(i % 32),
                RegIndex(32 + i % 16));
    b.endJump(0);
    return b.finalize("alu_indep");
}

} // namespace

TEST(Backend, CommitsInOrder)
{
    Rig r(independentProgram(16));
    Cycle cycle = 0;
    for (unsigned i = 0; i < 16; ++i)
        r.be.accept(r.makeInst(&r.prog.instructions()[i]), 1);
    r.run(cycle, 30);
    ASSERT_EQ(r.committed.size(), 16u);
    for (unsigned i = 0; i < 16; ++i)
        EXPECT_EQ(r.committed[i].seq, i + 1);
}

TEST(Backend, DependencyChainSerializesExecution)
{
    // A chain of N dependent ALU ops takes ~N more cycles than N
    // independent ones.
    Rig chain(aluProgram(32));
    Cycle c1 = 0;
    for (unsigned i = 0; i < 32; ++i)
        chain.be.accept(chain.makeInst(&chain.prog.instructions()[i]),
                        1);
    while (chain.committed.size() < 32 && c1 < 300)
        chain.run(c1, 1);

    Rig indep(independentProgram(32));
    Cycle c2 = 0;
    for (unsigned i = 0; i < 32; ++i)
        indep.be.accept(indep.makeInst(&indep.prog.instructions()[i]),
                        1);
    while (indep.committed.size() < 32 && c2 < 300)
        indep.run(c2, 1);

    EXPECT_GT(c1, c2 + 20);
}

TEST(Backend, MispredictRequestsRedirect)
{
    ProgramBuilder pb;
    pb.beginBlock();
    pb.addFiller(2);
    CondSpec cs;
    pb.endCond(cs, 0);
    Program p = pb.finalize("br");

    Rig r(std::move(p));
    Cycle cycle = 0;
    for (unsigned i = 0; i < 2; ++i)
        r.be.accept(r.makeInst(&r.prog.instructions()[i]), 1);
    DynInst br = r.makeInst(&r.prog.instructions()[2]);
    br.hasPrediction = true;
    br.predTaken = false;
    br.predTarget = br.si->nextPC();
    br.taken = true;
    br.actualNext = br.si->directTarget;
    br.mispredict = true;
    const SeqNum brSeq = br.seq;
    r.be.accept(std::move(br), 1);

    Redirect red;
    for (unsigned i = 0; i < 20 && !red.pending(); ++i)
        r.be.tick(++cycle, red);
    ASSERT_TRUE(red.pending());
    EXPECT_EQ(red.kind, RedirectKind::ExecMispredict);
    EXPECT_EQ(red.survivorSeq, brSeq);
    EXPECT_EQ(red.targetPC, r.prog.instructions()[2].directTarget);
}

TEST(Backend, WrongPathBranchNeverRedirects)
{
    ProgramBuilder pb;
    pb.beginBlock();
    CondSpec cs;
    pb.endCond(cs, 0);
    Program p = pb.finalize("br");
    Rig r(std::move(p));

    // Block commit with a flush-pending head so the wrong-path branch
    // stays in flight (the core squashes wrong-path instructions
    // before they ever reach commit).
    DynInst blocker = r.makeInst(&r.prog.instructions()[0]);
    blocker.flushPending = true;
    r.be.accept(std::move(blocker), 1);
    DynInst br = r.makeInst(&r.prog.instructions()[0]);
    br.wrongPath = true;
    br.mispredict = false; // resolution == prediction on wrong path
    r.be.accept(std::move(br), 1);
    Cycle cycle = 0;
    Redirect red;
    for (unsigned i = 0; i < 15; ++i)
        r.be.tick(++cycle, red);
    EXPECT_FALSE(red.pending());
}

TEST(Backend, MemOrderViolationDetectedAndFiltered)
{
    // Store and a younger load to the same address; the load's source
    // is ready immediately while the store waits on a slow producer,
    // so the load executes first -> violation -> flush at the load;
    // the filter is trained.
    ProgramBuilder pb;
    pb.beginBlock();
    pb.addOp(InstClass::IntDiv, 5, 6); // slow producer of r5
    MemSpec ms;
    ms.regionBase = 0x20000;
    ms.regionSize = 64;
    pb.addStore(ms, 5, 5); // store depends on r5
    pb.addLoad(ms, 7);     // independent load, same region
    pb.addFiller(2);
    pb.endJump(0);
    Program p = pb.finalize("raw");
    Rig r(std::move(p));
    // Warm the data line: a cold load would miss to memory and
    // complete after the store, hiding the violation.
    r.mem.dataAccess(0, 0x20000, false, 0);

    Cycle cycle = 400;
    r.be.accept(r.makeInst(&r.prog.instructions()[0]), cycle); // div
    r.be.accept(r.makeInst(&r.prog.instructions()[1], 0x20000), cycle);
    DynInst load = r.makeInst(&r.prog.instructions()[2], 0x20000);
    const SeqNum loadSeq = load.seq;
    r.be.accept(std::move(load), cycle);

    Redirect red;
    for (unsigned i = 0; i < 40 && !red.pending(); ++i)
        r.be.tick(++cycle, red);
    ASSERT_TRUE(red.pending());
    EXPECT_EQ(red.kind, RedirectKind::MemOrder);
    EXPECT_EQ(red.survivorSeq, loadSeq - 1);
    EXPECT_EQ(r.mdp.storeFor(r.prog.instructions()[2].pc),
              r.prog.instructions()[1].pc);
}

TEST(Backend, FilteredLoadWaitsForStore)
{
    // Same shape, but pre-train the filter: the load must wait and no
    // violation occurs.
    ProgramBuilder pb;
    pb.beginBlock();
    pb.addOp(InstClass::IntDiv, 5, 6);
    MemSpec ms;
    ms.regionBase = 0x20000;
    ms.regionSize = 64;
    pb.addStore(ms, 5, 5);
    pb.addLoad(ms, 7);
    pb.addFiller(2);
    pb.endJump(0);
    Program p = pb.finalize("raw2");
    Rig r(std::move(p));
    r.mdp.train(r.prog.instructions()[2].pc,
                r.prog.instructions()[1].pc);
    r.mem.dataAccess(0, 0x20000, false, 0);

    Cycle cycle = 400;
    r.be.accept(r.makeInst(&r.prog.instructions()[0]), cycle);
    r.be.accept(r.makeInst(&r.prog.instructions()[1], 0x20000), cycle);
    r.be.accept(r.makeInst(&r.prog.instructions()[2], 0x20000), cycle);

    Redirect red;
    for (unsigned i = 0; i < 60; ++i)
        r.be.tick(++cycle, red);
    EXPECT_FALSE(red.pending());
    EXPECT_EQ(r.be.stats().memOrderFlushes, 0u);
    EXPECT_EQ(r.committed.size(), 3u);
}

TEST(Backend, SquashRemovesYoungerAndRebuildsScoreboard)
{
    Rig r(independentProgram(16));
    Cycle cycle = 0;
    for (unsigned i = 0; i < 8; ++i)
        r.be.accept(r.makeInst(&r.prog.instructions()[i]), 1);
    r.run(cycle, 4);
    r.be.squashYoungerThan(4);
    EXPECT_EQ(r.be.robSize(), 4u);
    // New instructions after the squash still flow to commit.
    for (unsigned i = 8; i < 12; ++i)
        r.be.accept(r.makeInst(&r.prog.instructions()[i]), cycle);
    r.run(cycle, 30);
    EXPECT_EQ(r.committed.size(), 8u);
}

TEST(Backend, FlushPendingBlocksCommit)
{
    Rig r(independentProgram(4));
    Cycle cycle = 0;
    DynInst di = r.makeInst(&r.prog.instructions()[0]);
    di.flushPending = true;
    r.be.accept(std::move(di), 1);
    r.run(cycle, 20);
    EXPECT_TRUE(r.committed.empty());
    r.be.findInFlightMutable(1)->flushPending = false;
    r.run(cycle, 10);
    EXPECT_EQ(r.committed.size(), 1u);
}

TEST(Backend, CoupledCommitCounted)
{
    Rig r(independentProgram(4));
    Cycle cycle = 0;
    DynInst di = r.makeInst(&r.prog.instructions()[0]);
    di.mode = FetchMode::Coupled;
    r.be.accept(std::move(di), 1);
    r.run(cycle, 20);
    EXPECT_EQ(r.be.stats().coupledCommitted, 1u);
}

TEST(Backend, SeqSlotIndexSurvivesSquashAndRingWraparound)
{
    // Small ROB so the ring position counter wraps several times; the
    // stable ROB positions held by the LSQ, the completion events and
    // the wake lists must stay exact across squashes and wraps.
    BackendParams bp;
    bp.robEntries = 8;
    bp.iqEntries = 8;
    bp.lsqEntries = 8;
    Rig r(independentProgram(16), bp);
    Cycle cycle = 0;

    // Fill partway, then squash the younger half before anything
    // commits: seqs 4..6 vanish, 1..3 survive.
    for (unsigned i = 0; i < 6; ++i)
        r.be.accept(r.makeInst(&r.prog.instructions()[i]), cycle);
    EXPECT_EQ(r.be.robSize(), 6u);
    r.be.squashYoungerThan(3);
    EXPECT_EQ(r.be.robSize(), 3u);
    ASSERT_NE(r.be.findInFlightMutable(2), nullptr);
    EXPECT_EQ(r.be.findInFlightMutable(2)->seq, 2u);
    EXPECT_EQ(r.be.findInFlightMutable(5), nullptr);

    // Refill while draining so the 8-entry ring wraps ~5 times.
    unsigned fed = 0;
    while (r.committed.size() < 40 && cycle < 2000) {
        if (fed < 37 && r.be.canAccept(1)) {
            r.be.accept(
                r.makeInst(&r.prog.instructions()[fed % 16]), cycle);
            ++fed;
        }
        r.run(cycle, 1);
    }
    ASSERT_EQ(r.committed.size(), 40u);

    // Strictly increasing seqs, and no squashed seq ever commits.
    SeqNum prev = 0;
    for (const DynInst &di : r.committed) {
        EXPECT_GT(di.seq, prev);
        EXPECT_TRUE(di.seq <= 3 || di.seq >= 7) << di.seq;
        prev = di.seq;
    }
    EXPECT_TRUE(r.be.empty());
}

TEST(Backend, SquashedWaiterSlotReuseIsNotWokenByOldProducer)
{
    // P (slow div) and Q (div on P) survive; C waits on P and is
    // squashed. D reuses C's ROB slot and waits on Q only. P's
    // completion must not wake D: D issues once Q completes.
    ProgramBuilder pb;
    pb.beginBlock();
    pb.addOp(InstClass::IntDiv, 5, 6);     // P: r5
    pb.addOp(InstClass::IntDiv, 9, 5);     // Q: r9 <- r5
    pb.addOp(InstClass::IntAlu, 7, 5);     // C: r7 <- r5
    pb.addOp(InstClass::IntAlu, 10, 9);    // D: r10 <- r9
    pb.endJump(0);
    Program prog = pb.finalize("slot_reuse");
    Rig r(std::move(prog));
    const auto &code = r.prog.instructions();

    Cycle cycle = 0;
    r.be.accept(r.makeInst(&code[0]), cycle);
    r.be.accept(r.makeInst(&code[1]), cycle);
    r.be.accept(r.makeInst(&code[2]), cycle);
    r.run(cycle, 5); // all three dispatched; P issued, Q and C wait
    ASSERT_EQ(r.be.iqSize(), 2u);
    r.be.squashYoungerThan(2); // C goes
    EXPECT_EQ(r.be.iqSize(), 1u);
    DynInst d = r.makeInst(&code[3]);
    d.seq = 3; // same seq, same ROB slot as C
    r.be.accept(std::move(d), cycle);

    while (r.committed.size() < 3 && cycle < 200)
        r.run(cycle, 1);
    ASSERT_EQ(r.committed.size(), 3u);
    const DynInst &q = r.committed[1];
    const DynInst &dd = r.committed[2];
    ASSERT_EQ(dd.si, &code[3]);
    // D is ready in the cycle Q completes, never earlier.
    EXPECT_EQ(dd.completeCycle,
              q.completeCycle + r.be.config().issueToExec);
}

TEST(Backend, FilteredLoadIssuesWhenStoreAndProducerCompleteTogether)
{
    // The load's address producer X and its awaited store S complete
    // in the same cycle; the load becomes ready on that cycle, exactly
    // as the polling select decides.
    ProgramBuilder pb;
    pb.beginBlock();
    MemSpec ms;
    ms.regionBase = 0x20000;
    ms.regionSize = 64;
    pb.addOp(InstClass::IntAlu, 5); // A: store data r5
    pb.addOp(InstClass::IntAlu, 3); // B: r3
    pb.addOp(InstClass::IntAlu, 4, 3); // X: r4 <- r3
    pb.addStore(ms, 5);             // S: data r5
    pb.addLoad(ms, 7, 4);           // L: addr r4
    pb.endJump(0);
    Program prog = pb.finalize("same_cycle_wake");
    const auto &code = prog.instructions();

    // Issue cycle of every seq, and completion cycles, from one run.
    const auto runOn = [&](auto &be, MemHierarchy &mem,
                           MemDepPredictor &mdp) {
        mdp.train(code[4].pc, code[3].pc);
        mem.dataAccess(0, 0x20000, false, 0);
        std::vector<Cycle> issuedAt(6, 0), done(6, 0);
        Cycle cycle = 400;
        for (SeqNum s = 1; s <= 5; ++s) {
            DynInst di;
            di.si = &code[s - 1];
            di.seq = s;
            di.memAddr = di.si->isMemInst() ? 0x20000 : invalidAddr;
            di.actualNext = di.si->nextPC();
            be.accept(std::move(di), cycle);
        }
        for (unsigned i = 0; i < 60; ++i) {
            Redirect red;
            be.tick(++cycle, red);
            EXPECT_FALSE(red.pending());
            be.forEachInFlight([&](const DynInst &di) {
                if (di.issued && issuedAt[di.seq] == 0) {
                    issuedAt[di.seq] = cycle;
                    done[di.seq] = di.completeCycle;
                }
            });
        }
        return std::make_pair(issuedAt, done);
    };

    MemHierarchy memF, memR;
    MemDepPredictor mdpF, mdpR;
    Backend fast(BackendParams{}, memF, mdpF);
    PollingBackend ref(BackendParams{}, memR, mdpR);
    const auto [issueF, doneF] = runOn(fast, memF, mdpF);
    const auto [issueR, doneR] = runOn(ref, memR, mdpR);

    ASSERT_NE(doneF[3], 0u);
    EXPECT_EQ(doneF[3], doneF[4]); // X and S complete together
    EXPECT_EQ(issueF[5], doneF[3]); // L issues that very cycle
    EXPECT_EQ(issueF, issueR);
    EXPECT_EQ(doneF, doneR);
    EXPECT_EQ(fast.stats().committed, 5u);
}
