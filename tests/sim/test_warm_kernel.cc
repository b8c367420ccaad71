/**
 * @file
 * Batch functional-warming kernel identity tests. Core::fastForward
 * warms every instruction with the kernel (sim/warm_kernel.cc) — off
 * the memoized compiled prefix while the stream is inside it, off
 * transient chunks the stream compiles past it. A per-instruction
 * warming loop, defined here, is the reference: after every
 * fast-forward the kernel's serialized warm state must equal the
 * reference's byte for byte, for every catalog workload, inside a
 * short prefix, straddling its end, wholly past it, with no trace at
 * all, and right after a detailed run that left generated-ahead
 * instructions in the oracle window. The checkpoint resume state the
 * fast-forward leaves behind must equal the lazy generator's.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/error.hh"
#include "common/fault.hh"
#include "common/serialize.hh"
#include "sim/config.hh"
#include "sim/core.hh"
#include "workload/builders.hh"
#include "workload/catalog.hh"
#include "workload/compiled_trace.hh"

namespace elfsim {

/**
 * Per-instruction functional warming: pull each instruction through
 * the oracle window and warm it on its own. Production code never
 * calls it; it is the batch kernel's specification.
 */
struct ScalarWarmReference
{
    static void fastForward(Core &c, InstCount n);
};

void
ScalarWarmReference::fastForward(Core &c, InstCount n)
{
    ELFSIM_ASSERT(c.backendUnit->empty() && c.fetchToDecode->empty(),
                  "reference fast-forward with in-flight instructions");
    const Addr lineMask = ~(Addr(c.cfg.mem.l0i.lineBytes) - 1);
    Addr lastLine = invalidAddr;
    Addr resumePC = invalidAddr;
    ExecContext *exec = currentExecContext();

    for (InstCount i = 0; i < n; ++i) {
        if (exec && i % Core::ffPollInsts == 0)
            exec->poll(c.coreStats.cycles, c.lastCommitOracleIdx);
        const SeqNum idx = c.lastCommitOracleIdx + 1;
        const OracleInst &oi = c.oracle->at(idx);
        const StaticInst &si = *oi.si;

        // One synthetic cycle per instruction.
        ++c.coreStats.cycles;
        const Cycle now = c.coreStats.cycles;

        // The instruction side warms once per cache line.
        const Addr line = si.pc & lineMask;
        if (line != lastLine) {
            c.mem->instFetch(si.pc, now);
            lastLine = line;
        }
        if (si.isMemInst())
            c.mem->dataAccess(si.pc, oi.memAddr, si.isStore(), now);

        if (si.branch != BranchKind::None) {
            c.bank->commitBranch(si.pc, si.branch, oi.taken, oi.nextPC,
                                 TagePrediction{}, IttagePrediction{},
                                 c.historyVisible(si));
            c.controller->coupledPredictors().trainCommit(
                si.pc, si.branch, oi.taken, oi.nextPC,
                FetchMode::Coupled);
            if (oi.taken) {
                c.btbHier->lookup(oi.nextPC);
                lastLine = invalidAddr;
            }
        }
        c.builder->retire(si, oi.taken, oi.nextPC);
        c.oracle->retireUpTo(idx);
        c.lastCommitOracleIdx = idx;
        resumePC = oi.nextPC;
    }

    c.ffGenStateValid =
        c.oracle->windowEmpty() && c.oracle->genStateKnown();
    if (c.ffGenStateValid)
        c.ffGenState = c.oracle->genState();

    c.bank->resetSpecToArch();
    c.instSupply->redirect(c.lastCommitOracleIdx + 1);
    c.faq->clear();
    if (resumePC == invalidAddr)
        resumePC = c.oracle->pcAt(c.lastCommitOracleIdx + 1);
    c.controller->applyRedirect(c.coreStats.cycles, resumePC);
}

} // namespace elfsim

using namespace elfsim;

namespace {

// Sanitizer builds run several times slower; subsample the catalog
// there (same idiom as test_sampling).
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr unsigned kCatalogStride = 5;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
constexpr unsigned kCatalogStride = 5;
#else
constexpr unsigned kCatalogStride = 1;
#endif
#else
constexpr unsigned kCatalogStride = 1;
#endif

/** Arm the process-wide injector for one scope (test_fault idiom). */
struct ArmedFaults
{
    explicit ArmedFaults(const std::string &spec)
    {
        FaultInjector::instance().arm(FaultInjector::parse(spec));
    }
    ~ArmedFaults() { FaultInjector::instance().disarm(); }
};

std::vector<std::uint8_t>
warmBytes(const Core &core)
{
    Serializer s;
    core.saveWarmState(s);
    return s.data();
}

std::vector<std::uint8_t>
genBytes(const OracleGen &g)
{
    Serializer s;
    g.saveState(s);
    return s.data();
}

/** One step of a scenario: a fast-forward or a detailed run, each
 *  preceded by a quiesce. */
struct Step
{
    bool detailed;
    InstCount n;
};

Step ff(InstCount n) { return {false, n}; }
Step run(InstCount n) { return {true, n}; }

/**
 * Drive a kernel core (backed by @a trace, possibly null) and a
 * reference core (lazy stream, per-instruction warming) through
 * @a steps, checking after every fast-forward that the warm state is
 * byte-identical and that the resume state is valid exactly when the
 * fast-forward ended past the prefix — and then equals the lazy
 * generator's own state at that position.
 */
void
checkScenario(const SimConfig &cfg, const Program &prog,
              const std::shared_ptr<const CompiledTrace> &trace,
              const std::vector<Step> &steps, const std::string &what)
{
    Core kernel(cfg, prog, trace);
    Core ref(cfg, prog);
    OracleGen truth;
    truth.reset(prog);
    InstCount truthPos = 0;
    const InstCount prefix = trace ? trace->size() : 0;

    InstCount ffInsts = 0;
    for (std::size_t k = 0; k < steps.size(); ++k) {
        const std::string at = what + " step " + std::to_string(k);
        kernel.squashToCommitted();
        ref.squashToCommitted();
        if (steps[k].detailed) {
            kernel.run(steps[k].n);
            ref.run(steps[k].n);
            ASSERT_EQ(kernel.cycles(), ref.cycles()) << at;
            continue;
        }
        kernel.fastForward(steps[k].n);
        ScalarWarmReference::fastForward(ref, steps[k].n);
        ffInsts += steps[k].n;

        const InstCount end = kernel.consumedInsts();
        ASSERT_EQ(end, ref.consumedInsts()) << at;
        ASSERT_EQ(warmBytes(kernel), warmBytes(ref)) << at;
        if (end <= prefix) {
            EXPECT_FALSE(kernel.ffResumeStateValid()) << at;
            continue;
        }
        for (; truthPos < end; ++truthPos)
            truth.step(prog);
        ASSERT_TRUE(kernel.ffResumeStateValid()) << at;
        EXPECT_EQ(genBytes(kernel.ffResumeState()), genBytes(truth))
            << at;
        if (ref.ffResumeStateValid()) {
            EXPECT_EQ(genBytes(kernel.ffResumeState()),
                      genBytes(ref.ffResumeState()))
                << at;
        }
    }
    EXPECT_EQ(kernel.warmStats().kernelInsts, ffInsts) << what;
    EXPECT_EQ(kernel.warmStats().scalarInsts, 0u) << what;
}

} // namespace

// The hard guarantee behind the one warmer: for every catalog
// workload, on a DCF and a no-DCF frontend, the serialized warm state
// — TAGE/ITTAGE/bimodal/RAS, both BTB levels, the BTB builder, caches,
// memory-dependence state, every cumulative counter — equals the
// per-instruction reference's after every fast-forward, wherever it
// falls relative to the compiled prefix.
TEST(WarmKernel, ByteIdenticalToScalarAcrossCatalog)
{
    const InstCount prefix = 60000; // not a multiple of ffPollInsts
    // Inside the prefix (twice, so cursors start mid-stream),
    // straddling its end, wholly past it across several chunks, then
    // after detailed runs whose generated-ahead instructions fill the
    // oracle window — the last fast-forward shorter than that window.
    const std::vector<Step> withPrefix = {
        ff(20000), ff(25000), ff(30000), ff(Core::ffChunkInsts + 4000),
        run(2000), ff(40000), run(2000), ff(7)};
    // No trace at all: every instruction comes from a chunk.
    const std::vector<Step> noTrace = {ff(Core::ffChunkInsts + 9000),
                                       run(2000), ff(7)};

    unsigned wi = 0;
    for (const WorkloadSpec &w : workloadCatalog()) {
        if (wi++ % kCatalogStride != 0)
            continue;
        const Program p = buildWorkload(w);
        const auto trace = CompiledTrace::compile(p, prefix);
        for (FrontendVariant v :
             {FrontendVariant::UElf, FrontendVariant::NoDcf}) {
            const SimConfig cfg = makeConfig(v);
            const std::string what =
                w.name + " " + variantName(v);
            checkScenario(cfg, p, trace, withPrefix, what + " prefix");
            checkScenario(cfg, p, nullptr, noTrace, what + " no trace");
        }
    }
}

// A detailed run that ends inside the prefix but generates ahead past
// it leaves the window straddling the prefix end; the next
// fast-forward drops it and re-serves the arrays, then chunks.
TEST(WarmKernel, WindowStraddlingThePrefixEnd)
{
    const Program p = microBtbMissChain(512, 6);
    const auto trace = CompiledTrace::compile(p, 50000);
    checkScenario(makeConfig(FrontendVariant::UElf), p, trace,
                  {ff(49000), run(800), ff(30000)}, "straddling window");
}

// The poll ladder is relative to the fastForward() call and runs
// straight through the prefix/chunk boundary: an injected throw armed
// for the rung after the prefix end must stop both warmers at the
// same instruction, with the same warm state.
TEST(WarmKernel, PollLadderCrossesThePrefixEnd)
{
    const Program p = microBtbMissChain(512, 6);
    const InstCount prefix = 50000; // between rungs 3 and 4
    const auto trace = CompiledTrace::compile(p, prefix);
    const SimConfig cfg = makeConfig(FrontendVariant::UElf);
    const InstCount rung = 4 * Core::ffPollInsts;
    ASSERT_GT(rung, prefix);

    ExecContext ctx;
    ScopedExecContext scope(ctx);
    Core kernel(cfg, p, trace);
    Core ref(cfg, p);
    kernel.squashToCommitted();
    ref.squashToCommitted();
    {
        // A fresh core's clock starts at 0, so the rung's tick is
        // its instruction offset.
        ArmedFaults armed("throw:0:" + std::to_string(rung));
        EXPECT_THROW(kernel.fastForward(120000), InjectedError);
        EXPECT_THROW(ScalarWarmReference::fastForward(ref, 120000),
                     InjectedError);
    }
    EXPECT_EQ(kernel.consumedInsts(), rung);
    EXPECT_EQ(ref.consumedInsts(), rung);
    EXPECT_EQ(kernel.cycles(), ref.cycles());
    EXPECT_EQ(warmBytes(kernel), warmBytes(ref));
}
