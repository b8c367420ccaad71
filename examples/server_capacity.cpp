/**
 * @file
 * Server capacity study — the paper's motivating scenario: a
 * transaction-server-like workload whose instruction footprint grows
 * beyond the L1I and BTB reach. As it grows, the decoupled fetcher's
 * FAQ-directed prefetch becomes the dominant benefit (the paper's
 * "server 1 improves 40% with DCF"), while BTB misses expose the
 * decode-resteer feedback loop that ELF's coupled mode shortens.
 *
 * The (footprint × variant) grid is a SweepSpec
 * (bench_specs.hh::serverCapacitySpec); the common bench options
 * apply (--jobs N, --json PATH, --csv PATH, --spec, --dump-spec,
 * --quick, --help).
 *
 *   $ ./server_capacity [--jobs N] [--json results.json]
 *
 * With `--hammer N` the binary doubles as the sweep-service load
 * generator: it starts an in-process elfsimd (service/daemon.hh),
 * fires the same spec from N concurrent HTTP clients — plus one
 * client that disconnects right after submitting — and verifies
 * every complete response is byte-identical to an in-process
 * SweepRunner run of the spec, the daemon keeps serving after the
 * disconnect, and /stats shows cross-request trace-cache sharing.
 *
 *   $ ./server_capacity --quick --hammer 4
 */

#include <atomic>
#include <cstdio>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "bench_specs.hh"
#include "bench_util.hh"
#include "service/daemon.hh"
#include "service/http.hh"

using namespace elfsim;

namespace {

/**
 * The load-generator mode (see file comment). Returns the process
 * exit status: 0 when every client saw byte-identical results and
 * the daemon stayed healthy.
 */
int
hammerDaemon(const SweepSpec &spec, unsigned clients,
             const bench::Options &opt)
{
    // Reference bytes: the same spec through an in-process runner.
    // Results are thread-count-independent, so this matches what the
    // daemon's (differently sized) pool produces.
    const ExpandedSweep ex = expandSweep(spec);
    SweepRunner runner(bench::specJobs(opt, spec));
    bench::armRunner(runner, spec);
    const std::vector<RunResult> res = runner.run(ex.jobs);
    std::ostringstream want;
    writeResultsJson(want, res);
    const std::string expected = want.str();

    std::ostringstream sj;
    writeSweepSpec(sj, spec);
    const std::string body = sj.str();

    service::ServiceConfig cfg;
    cfg.jobs = opt.jobs;
    service::SweepService svc(cfg);
    svc.start();
    std::printf("hammer: in-process elfsimd on 127.0.0.1:%u, "
                "%u clients + 1 disconnector\n",
                unsigned(svc.port()), clients);

    std::atomic<unsigned> bad{0};
    std::vector<std::thread> posters;
    for (unsigned c = 0; c < clients; ++c) {
        posters.emplace_back([&, c] {
            try {
                const service::HttpResponse r = service::httpFetch(
                    "127.0.0.1", svc.port(), "POST", "/sweep", body);
                if (r.status != 200) {
                    std::fprintf(stderr,
                                 "hammer: client %u got status %d\n",
                                 c, r.status);
                    ++bad;
                } else if (r.body != expected) {
                    std::fprintf(
                        stderr,
                        "hammer: client %u response differs from the "
                        "in-process run (%zu vs %zu bytes)\n",
                        c, r.body.size(), expected.size());
                    ++bad;
                }
            } catch (const SimError &e) {
                std::fprintf(stderr, "hammer: client %u: %s\n", c,
                             e.what());
                ++bad;
            }
        });
    }

    // The injected fault: submit a sweep, then hang up without
    // reading the response. The daemon must skip or cancel that
    // sweep's cells and keep serving everyone else.
    {
        const int fd = service::connectTcp("127.0.0.1", svc.port());
        service::writeHttpRequest(fd, "127.0.0.1", "POST", "/sweep",
                                  body);
        ::close(fd);
    }

    for (std::thread &t : posters)
        t.join();

    bool healthy = false, sharedCache = false;
    try {
        const service::HttpResponse hz = service::httpFetch(
            "127.0.0.1", svc.port(), "GET", "/healthz", {});
        healthy = hz.status == 200;
        const service::HttpResponse st = service::httpFetch(
            "127.0.0.1", svc.port(), "GET", "/stats", {});
        const json::Value doc = json::parse(st.body);
        const std::uint64_t hits =
            doc.at("trace").at("trace.cache_hits").asU64();
        const std::uint64_t sweeps =
            doc.at("service").at("service.sweeps").asU64();
        sharedCache = hits > 0;
        std::printf("hammer: daemon alive after disconnect; %llu "
                    "sweeps served, %llu trace-cache hits\n",
                    (unsigned long long)sweeps,
                    (unsigned long long)hits);
    } catch (const SimError &e) {
        std::fprintf(stderr, "hammer: daemon unreachable: %s\n",
                     e.what());
    }
    svc.stop();

    if (bad || !healthy || !sharedCache) {
        std::fprintf(stderr,
                     "hammer FAILED: %u bad clients, healthy=%d, "
                     "cross-request cache sharing=%d\n",
                     bad.load(), healthy, sharedCache);
        return 1;
    }
    std::printf("hammer OK: %u clients byte-identical to the "
                "in-process run, daemon survived the disconnect\n",
                clients);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    bench::Options defaults;
    defaults.warmupInsts = 150000;
    defaults.measureInsts = 150000;
    unsigned hammer = 0;
    const std::vector<bench::LocalFlag> locals = {
        {"--hammer", true,
         "  --hammer N      start an in-process elfsimd and verify N "
         "concurrent\n"
         "                  clients (plus one injected disconnect) "
         "stream results\n"
         "                  byte-identical to an in-process run\n",
         [&](const char *v) {
             hammer = unsigned(bench::parseCount(
                 argv[0], "--hammer", v, UINT_MAX));
         }},
    };
    const bench::Options opt =
        bench::parseOptions(argc, argv, defaults, locals);

    const SweepSpec spec = bench::finalizeSpec(
        bench::serverCapacitySpec(opt.runOptions()), opt, argv[0]);

    if (hammer > 0)
        return hammerDaemon(spec, hammer, opt);

    std::printf("Instruction-footprint sweep (server-1 shape)\n");

    const ExpandedSweep ex = expandSweep(spec);
    SweepRunner runner(bench::specJobs(opt, spec));
    bench::armRunner(runner, spec);
    const std::vector<RunResult> res = runner.run(ex.jobs);

    if (!opt.specPath.empty()) {
        bench::printResultsTable(res, ex.labels);
        bench::exportResults(opt, runner);
        return bench::exitCode(runner);
    }

    std::printf("%-10s %9s | %7s %7s %7s | %8s %8s\n", "code KB",
                "DCF IPC", "NoDCF", "L-ELF", "U-ELF", "BTB L0",
                "dec.rst");
    for (std::size_t i = 0; i < ex.programs.size(); ++i) {
        const RunResult &dcf = res[4 * i + 0];
        const RunResult &nod = res[4 * i + 1];
        const RunResult &l = res[4 * i + 2];
        const RunResult &u = res[4 * i + 3];
        std::printf("%-10llu %9.3f | %7.3f %7.3f %7.3f | %7.0f%% "
                    "%8llu\n",
                    (unsigned long long)(ex.programs[i]
                                             .footprintBytes() /
                                         1024),
                    dcf.ipc, nod.ipc / dcf.ipc, l.ipc / dcf.ipc,
                    u.ipc / dcf.ipc, 100 * dcf.btbHitL0,
                    (unsigned long long)dcf.decodeResteers);
        std::fflush(stdout);
    }

    std::printf("\nAs the footprint grows: the BTB L0 hit rate falls, "
                "decode resteers (the BTB-miss\nfeedback loop) rise, "
                "and NoDCF collapses because it has no FAQ-directed "
                "prefetch.\n");
    bench::exportResults(opt, runner);
    return bench::exitCode(runner);
}
