/**
 * @file
 * Experiment E15 — the validation daemon under multi-client load
 * (no paper counterpart; the service-layer ROADMAP work).
 *
 * One in-process keqd (service::Server) versus the daemonless
 * pipeline, over the Figure 6 corpus (seed 0x6cc2006):
 *
 *   1. local reference — Pipeline::run, also the verdict oracle;
 *   2. cold daemon pass — one client against an empty cache/store:
 *      pays the same solves plus the wire round trips;
 *   3. warm saturation curve — {1, 2, 4, 8} concurrent clients, each
 *      validating the full module against the now-warm daemon.
 *
 * Hard assertions (exit 1 on violation, so CI can gate on this):
 *   - every client run's canonical summary is byte-identical to the
 *     local reference (the daemon changes *where* solving happens,
 *     never what is concluded);
 *   - the warm verdict-store hit rate is >= 90% (acceptance criterion:
 *     a second client against a warm daemon re-solves nothing).
 *
 * Results land in BENCH_service.json. Scale knobs:
 * KEQ_SERVICE_FUNCTIONS (corpus size), KEQ_SERVICE_MAX_CLIENTS.
 */

#include <cstdio>
#include <filesystem>
#include <iostream>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "bench/bench_common.h"
#include "src/driver/corpus.h"
#include "src/driver/pipeline.h"
#include "src/llvmir/parser.h"
#include "src/llvmir/verifier.h"
#include "src/service/client.h"
#include "src/service/server.h"
#include "src/support/stopwatch.h"
#include "src/support/thread_pool.h"

namespace {

struct ClientRun
{
    std::string summary;
    std::string error;
    uint64_t cacheHits = 0;
    uint64_t cacheMisses = 0;
    uint64_t busyRetries = 0;
};

/** One full-module validation through the daemon. */
ClientRun
runClient(const keq::service::Endpoint &endpoint,
          const std::string &source,
          const std::vector<std::string> &functions)
{
    using namespace keq;
    ClientRun run;
    service::DaemonClientOptions options;
    options.endpoints = endpoint;
    service::DaemonClient client(options);
    if (!client.connect(run.error))
        return run;
    std::vector<driver::FunctionReport> reports;
    std::vector<bool> decided;
    if (!client.validateFunctions(source, functions, {}, reports,
                                  decided, run.error))
        return run;
    driver::ModuleReport report;
    report.functions = std::move(reports);
    run.summary = report.canonicalSummary();
    for (const driver::FunctionReport &fn : report.functions) {
        run.cacheHits += fn.verdict.stats.solverStats.cacheHits;
        run.cacheMisses += fn.verdict.stats.solverStats.cacheMisses;
    }
    run.busyRetries = client.busyRetries();
    return run;
}

} // namespace

int
main()
{
    using namespace keq;

    size_t function_count =
        bench::envSize("KEQ_SERVICE_FUNCTIONS", 120);
    size_t max_clients = bench::envSize("KEQ_SERVICE_MAX_CLIENTS", 8);

    driver::CorpusOptions copts;
    copts.functionCount = function_count;
    copts.seed = 0x6cc2006; // the Figure 6 corpus
    std::string source = driver::generateCorpusSource(copts);
    llvmir::Module module = llvmir::parseModule(source);
    llvmir::verifyModuleOrThrow(module);
    std::vector<std::string> functions;
    for (const llvmir::Function &fn : module.functions)
        if (!fn.isDeclaration())
            functions.push_back(fn.name);

    std::cout << "=== E15: validation daemon under multi-client load "
                 "===\n";
    std::cout << "corpus: " << function_count
              << " Figure 6 functions (seed " << copts.seed
              << "), client sweep up to " << max_clients << " (host has "
              << support::ThreadPool::hardwareThreads()
              << " hardware thread(s))\n\n";

    // 1. Local reference: the daemonless pipeline and verdict oracle.
    driver::PipelineOptions poptions;
    driver::Pipeline reference(poptions);
    support::Stopwatch watch;
    std::string reference_summary =
        reference.run(module).canonicalSummary();
    double local_seconds = watch.seconds();
    std::printf("local pipeline:          %7.2f s\n", local_seconds);

    // 2. The daemon, with a journal-backed verdict store.
    std::string stem = "keq-bench-service-" +
                       std::to_string(::getpid());
    std::string socket =
        (std::filesystem::temp_directory_path() / (stem + ".sock"))
            .string();
    std::string journal =
        (std::filesystem::temp_directory_path() / (stem + ".journal"))
            .string();
    std::remove(journal.c_str());

    service::ServerOptions soptions;
    soptions.listen = service::unixEndpoint(socket);
    soptions.verdictJournalPath = journal;
    service::Server server(soptions);
    std::string error;
    if (!server.start(error)) {
        std::fprintf(stderr, "FAIL: daemon start: %s\n", error.c_str());
        return 1;
    }

    bool ok = true;
    auto check = [&](const ClientRun &run, const char *label) {
        if (!run.error.empty()) {
            std::fprintf(stderr, "FAIL: %s: %s\n", label,
                         run.error.c_str());
            ok = false;
        } else if (run.summary != reference_summary) {
            std::fprintf(stderr,
                         "FAIL: %s verdicts diverge from the local "
                         "pipeline\n",
                         label);
            ok = false;
        }
    };

    // Cold pass: first client ever — empty cache, empty store.
    watch.reset();
    ClientRun cold = runClient(soptions.listen, source, functions);
    double cold_seconds = watch.seconds();
    check(cold, "cold client");
    std::printf("daemon, cold (1 client): %7.2f s (%llu cache "
                "hits, %llu misses)\n",
                cold_seconds,
                static_cast<unsigned long long>(cold.cacheHits),
                static_cast<unsigned long long>(cold.cacheMisses));

    // Warm saturation curve.
    bench::JsonReporter json;
    json.field("functions", static_cast<uint64_t>(function_count));
    json.field("local_seconds", local_seconds);
    json.field("cold_seconds", cold_seconds);
    json.field("cold_cache_hits", cold.cacheHits);
    json.field("cold_cache_misses", cold.cacheMisses);

    double warm_hit_rate = 0;
    for (size_t clients = 1; clients <= max_clients; clients *= 2) {
        std::vector<ClientRun> runs(clients);
        watch.reset();
        std::vector<std::thread> threads;
        for (size_t i = 0; i < clients; ++i)
            threads.emplace_back([&, i] {
                runs[i] = runClient(soptions.listen, source, functions);
            });
        for (std::thread &thread : threads)
            thread.join();
        double seconds = watch.seconds();

        uint64_t hits = 0;
        uint64_t misses = 0;
        uint64_t busy = 0;
        for (size_t i = 0; i < clients; ++i) {
            check(runs[i], "warm client");
            hits += runs[i].cacheHits;
            misses += runs[i].cacheMisses;
            busy += runs[i].busyRetries;
        }
        double rate = hits + misses > 0
                          ? static_cast<double>(hits) / (hits + misses)
                          : 1.0;
        if (clients == 1)
            warm_hit_rate = rate;
        std::printf("daemon, warm, %2zu client(s): %6.2f s, hit rate "
                    "%5.1f%%, %llu busy retries\n",
                    clients, seconds, 100.0 * rate,
                    static_cast<unsigned long long>(busy));
        std::string prefix =
            "warm_" + std::to_string(clients) + "_clients_";
        json.field(prefix + "seconds", seconds);
        json.field(prefix + "hit_rate", rate);
        json.field(prefix + "busy_retries", busy);
    }

    server.stop();
    std::remove(journal.c_str());

    // Acceptance: a warm daemon re-solves (almost) nothing.
    if (warm_hit_rate < 0.9) {
        std::fprintf(stderr,
                     "FAIL: warm verdict-store hit rate %.1f%% "
                     "(acceptance floor is 90%%)\n",
                     100.0 * warm_hit_rate);
        ok = false;
    }
    json.field("warm_hit_rate", warm_hit_rate);
    json.field("verdicts_identical", ok);
    json.field("cold_speedup_vs_local",
               cold_seconds > 0 ? local_seconds / cold_seconds : 0.0);
    if (!json.writeFile("BENCH_service.json"))
        std::fprintf(stderr, "warning: could not write "
                             "BENCH_service.json\n");

    if (ok)
        std::printf("\nverdict identity + warm-store acceptance: OK\n");
    return ok ? 0 : 1;
}
