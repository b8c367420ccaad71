/**
 * @file
 * CLI-contract test: every experiment harness (and the daemon, and
 * the examples) exits 0 on `--help` and 2 on an unknown flag — the
 * uniform usage-error semantics scripts and run_all.sh rely on. A
 * `--spec` asking for the removed strict mode is such a usage error.
 *
 * The binary locations come from the ELFSIM_BENCH_DIR /
 * ELFSIM_EXAMPLES_DIR environment variables, which the ctest
 * registration sets from $<TARGET_FILE_DIR:...> generator
 * expressions.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "sim/sweep_spec.hh"

namespace {

/** Exit status of `path args`, with stdout/stderr discarded. */
int
runTool(const std::string &path, const char *args)
{
    const std::string cmd =
        path + " " + args + " >/dev/null 2>/dev/null";
    const int rc = std::system(cmd.c_str());
    EXPECT_NE(rc, -1) << "system() failed for " << cmd;
    return WIFEXITED(rc) ? WEXITSTATUS(rc) : -1;
}

void
expectUniformCli(const std::string &dir, const char *name)
{
    const std::string path = dir + "/" + name;
    EXPECT_EQ(runTool(path, "--help"), 0) << name << " --help";
    EXPECT_EQ(runTool(path, "--definitely-not-a-flag"), 2)
        << name << " with an unknown flag";
}

std::string
requiredEnv(const char *name)
{
    const char *v = std::getenv(name);
    EXPECT_NE(v, nullptr)
        << name << " must be set by the ctest registration";
    return v ? v : "";
}

/** Write a one-cell spec with the given keep_going flag to a temp
 *  file; returns its path. */
std::string
writeTinySpec(const char *file, bool keepGoing)
{
    elfsim::SweepSpec spec;
    spec.name = "cli_keep_going";
    spec.run.warmupInsts = 1000;
    spec.run.measureInsts = 2000;
    elfsim::SweepGroup g;
    g.workloads = {elfsim::WorkloadSelector::micro("random_branch_loop",
                                                   {4, 0.5})};
    g.configs = {elfsim::ConfigSpec(elfsim::FrontendVariant::Dcf)};
    spec.groups.push_back(std::move(g));
    spec.policy.keepGoing = keepGoing;
    const std::string path = ::testing::TempDir() + "/" + file;
    std::ofstream os(path);
    elfsim::writeSweepSpec(os, spec);
    return path;
}

} // namespace

TEST(BenchCli, HelpExitsZeroAndUnknownFlagExitsTwo)
{
    const std::string benchDir = requiredEnv("ELFSIM_BENCH_DIR");
    ASSERT_FALSE(benchDir.empty());
    for (const char *name :
         {"bench_table1_workloads", "bench_table2_config",
          "bench_fig2_timing", "bench_fig3_flush_penalty",
          "bench_fig6_nodcf", "bench_fig7_elf_variants",
          "bench_fig8_lelf_uelf", "bench_fig9_geomean",
          "bench_ablation_elf", "bench_ablation_dcf", "elfsimd",
          "elfsim_coord"})
        expectUniformCli(benchDir, name);
}

TEST(BenchCli, CoordRejectsLeaseShorterThanTheHeartbeat)
{
    const std::string benchDir = requiredEnv("ELFSIM_BENCH_DIR");
    ASSERT_FALSE(benchDir.empty());
    const std::string coord = benchDir + "/elfsim_coord";
    // A 1 s lease can never outlive a 1000 ms heartbeat period: the
    // config is rejected up front with the uniform usage-error exit.
    EXPECT_EQ(runTool(coord,
                      "--spec /dev/null --spawn 2 --lease 1"),
              2);
    EXPECT_EQ(runTool(coord,
                      "--spec /dev/null --spawn 2 --lease 2 "
                      "--worker-heartbeat-ms 2000"),
              2);
}

TEST(BenchCli, ExamplesSharingTheParserFollowTheSameContract)
{
    const std::string dir = requiredEnv("ELFSIM_EXAMPLES_DIR");
    ASSERT_FALSE(dir.empty());
    expectUniformCli(dir, "server_capacity");
}

TEST(BenchCli, StrictModeSpecIsAUsageError)
{
    const std::string benchDir = requiredEnv("ELFSIM_BENCH_DIR");
    ASSERT_FALSE(benchDir.empty());
    const std::string strictPath =
        writeTinySpec("cli_strict.json", false);
    const std::string keptPath = writeTinySpec("cli_kept.json", true);
    const std::string strict = "--jobs 1 --spec " + strictPath;
    const std::string kept = "--jobs 1 --spec " + keptPath;
    const std::string fig9 = benchDir + "/bench_fig9_geomean";
    EXPECT_EQ(runTool(fig9, strict.c_str()), 2);
    EXPECT_EQ(runTool(fig9, kept.c_str()), 0);
    const std::string coord = benchDir + "/elfsim_coord";
    EXPECT_EQ(runTool(coord, (strict + " --local").c_str()), 2);
    EXPECT_EQ(runTool(coord, (kept + " --local").c_str()), 0);
    std::remove(strictPath.c_str());
    std::remove(keptPath.c_str());
}

TEST(BenchCli, CoordRejectsMalformedWorkerPorts)
{
    const std::string benchDir = requiredEnv("ELFSIM_BENCH_DIR");
    ASSERT_FALSE(benchDir.empty());
    const std::string coord = benchDir + "/elfsim_coord";
    const std::string specPath = writeTinySpec("cli_ports.json", true);
    // Each port was once read by an unchecked strtoul as port 1 (or
    // wrapped): the worker was then quarantined and the whole grid ran
    // in-process with exit 0.
    for (const char *worker :
         {"127.0.0.1:1x", "127.0.0.1:+1", "'127.0.0.1: 1'",
          "127.0.0.1:0", "127.0.0.1:65536", "127.0.0.1:", ":80"}) {
        SCOPED_TRACE(worker);
        const std::string args = "--jobs 1 --spec " + specPath +
                                 " --probes 1 --workers " + worker;
        EXPECT_EQ(runTool(coord, args.c_str()), 2);
    }
    std::remove(specPath.c_str());
}

TEST(BenchCli, ContradictorySamplingFlagsAreUsageErrors)
{
    const std::string benchDir = requiredEnv("ELFSIM_BENCH_DIR");
    ASSERT_FALSE(benchDir.empty());
    const std::string fig9 = benchDir + "/bench_fig9_geomean";
    for (const char *flags : {
             "--sample-length 100",                        // no period
             "--sample-warmup 100",                        // no period
             "--sample-period 1000",                       // no length
             "--sample-period 1000 --sample-length 2000",  // len > period
             "--sample-period 1000 --sample-length 100 "
             "--sample-warmup 1000",                       // warmup >= period
             "--sample-period 1000 --sample-length 600 "
             "--sample-warmup 500",                        // doesn't fit
             "--sample-period 1000 --sample-length 100 "
             "--interval 50",                              // both modes
         }) {
        SCOPED_TRACE(flags);
        EXPECT_EQ(runTool(fig9, (std::string("--quick --jobs 1 ") + flags)
                                    .c_str()),
                  2);
    }
}
