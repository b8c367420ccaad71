/**
 * @file
 * Cycle-identity guard for the hot-path kernel optimizations.
 *
 * The allocation-free tick loop, the stable-position ROB index, and
 * the flat predictor tables are pure *mechanical* rewrites: they must
 * not change a single simulated cycle. This test pins every frontend
 * variant on three small workloads (one per suite family) against
 * golden cycle/instruction counts captured from the pre-optimization
 * simulator. Any divergence means an optimization changed simulated
 * behavior, not just simulator speed — which is a bug here even if
 * the new behavior were "better".
 *
 * If a future PR *intentionally* changes timing semantics, it must
 * re-capture these goldens and say so in its description.
 */

#include <gtest/gtest.h>

#include "sim/runner.hh"
#include "workload/catalog.hh"
#include "workload/trace_cache.hh"

using namespace elfsim;

namespace {

struct Golden
{
    const char *workload;
    const char *variant;
    std::uint64_t cycles;
    std::uint64_t insts;
};

// Captured with warmupInsts=20000, measureInsts=50000 on the
// pre-optimization kernel (see EXPERIMENTS.md "Simulator throughput").
constexpr Golden goldens[] = {
    { "641.leela", "NoDCF", 47530ULL, 50002ULL },
    { "641.leela", "DCF", 27300ULL, 50003ULL },
    { "641.leela", "L-ELF", 27065ULL, 50003ULL },
    { "641.leela", "RET-ELF", 27027ULL, 50003ULL },
    { "641.leela", "IND-ELF", 27065ULL, 50003ULL },
    { "641.leela", "COND-ELF", 26969ULL, 50003ULL },
    { "641.leela", "U-ELF", 27307ULL, 50006ULL },
    { "602.gcc", "NoDCF", 42036ULL, 50005ULL },
    { "602.gcc", "DCF", 55115ULL, 50003ULL },
    { "602.gcc", "L-ELF", 55766ULL, 50003ULL },
    { "602.gcc", "RET-ELF", 55432ULL, 50003ULL },
    { "602.gcc", "IND-ELF", 55766ULL, 50003ULL },
    { "602.gcc", "COND-ELF", 56082ULL, 50003ULL },
    { "602.gcc", "U-ELF", 55365ULL, 50003ULL },
    { "srv2.subtest_1", "NoDCF", 39662ULL, 50006ULL },
    { "srv2.subtest_1", "DCF", 41116ULL, 50006ULL },
    { "srv2.subtest_1", "L-ELF", 40466ULL, 50006ULL },
    { "srv2.subtest_1", "RET-ELF", 40006ULL, 50006ULL },
    { "srv2.subtest_1", "IND-ELF", 40466ULL, 50006ULL },
    { "srv2.subtest_1", "COND-ELF", 41729ULL, 50006ULL },
    { "srv2.subtest_1", "U-ELF", 40298ULL, 50006ULL },
};

constexpr FrontendVariant allVariants[] = {
    FrontendVariant::NoDcf,   FrontendVariant::Dcf,
    FrontendVariant::LElf,    FrontendVariant::RetElf,
    FrontendVariant::IndElf,  FrontendVariant::CondElf,
    FrontendVariant::UElf,
};

void
runAllGoldens(const char *mode)
{
    RunOptions opts;
    opts.warmupInsts = 20000;
    opts.measureInsts = 50000;

    std::size_t g = 0;
    for (const char *name :
         {"641.leela", "602.gcc", "srv2.subtest_1"}) {
        const WorkloadSpec *spec = findWorkload(name);
        ASSERT_NE(spec, nullptr) << name;
        const Program prog = buildWorkload(*spec);
        for (FrontendVariant v : allVariants) {
            ASSERT_LT(g, std::size(goldens));
            const Golden &want = goldens[g++];
            const RunResult r = runVariant(prog, v, opts);
            EXPECT_STREQ(r.workload.c_str(), want.workload);
            EXPECT_STREQ(r.variant.c_str(), want.variant);
            EXPECT_EQ(r.cycles, want.cycles)
                << want.workload << " / " << want.variant << " ("
                << mode << ")";
            EXPECT_EQ(r.insts, want.insts)
                << want.workload << " / " << want.variant << " ("
                << mode << ")";
        }
    }
    EXPECT_EQ(g, std::size(goldens));
}

/** RAII enable/disable of the process-wide trace cache. */
struct ScopedTraceEnable
{
    bool prev;
    explicit ScopedTraceEnable(bool on)
        : prev(TraceCache::instance().enabled())
    {
        TraceCache::instance().setEnabled(on);
    }
    ~ScopedTraceEnable() { TraceCache::instance().setEnabled(prev); }
};

// The default path: oracle streams backed by compiled traces (the
// TraceCache is on by default).
TEST(GoldenCycles, EveryVariantMatchesPreOptimizationCounts)
{
    ScopedTraceEnable traces(true);
    runAllGoldens("compiled traces");
}

// The reference path: per-instruction lazy generation. Matching the
// same goldens as the compiled path proves trace compilation is
// behavior-neutral across every variant and workload family.
TEST(GoldenCycles, LazyGenerationMatchesTheSameGoldens)
{
    ScopedTraceEnable traces(false);
    runAllGoldens("lazy generation");
}

} // namespace
