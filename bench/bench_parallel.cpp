/**
 * @file
 * Experiment E11 — parallel validation pipeline with the memoizing
 * solver cache (no paper counterpart; ROADMAP scaling work).
 *
 * Three runs over the same Figure 6 corpus (seed 0x6cc2006):
 *
 *   1. serial baseline — the legacy pipeline: one function at a time,
 *      every solver query hits Z3 cold (exactly what
 *      bench_fig6_validation measures);
 *   2. serial + cache  — same order, queries memoized across sync
 *      points and functions;
 *   3. parallel + cache — Pipeline::runParallel with KEQ_PAR_JOBS
 *      workers sharing one sharded QueryCache.
 *
 * The harness asserts that all three runs produce identical ordered
 * verdicts (the determinism contract of runParallel), then reports
 * wall-clock speedups and the cache hit rate. On a single-core host the
 * speedup is delivered by the cache; with more cores the fan-out
 * multiplies it.
 *
 * Scale knobs: KEQ_PAR_FUNCTIONS (corpus size), KEQ_PAR_JOBS (workers).
 */

#include <cstdio>
#include <iostream>

#include "bench/bench_common.h"
#include "src/driver/corpus.h"
#include "src/driver/pipeline.h"
#include "src/llvmir/parser.h"
#include "src/llvmir/verifier.h"
#include "src/support/stopwatch.h"
#include "src/support/thread_pool.h"

int
main()
{
    using namespace keq;

    size_t function_count = bench::envSize("KEQ_PAR_FUNCTIONS", 240);
    unsigned jobs =
        static_cast<unsigned>(bench::envSize("KEQ_PAR_JOBS", 4));

    driver::CorpusOptions copts;
    copts.functionCount = function_count;
    copts.seed = 0x6cc2006; // the Figure 6 corpus
    llvmir::Module module =
        llvmir::parseModule(driver::generateCorpusSource(copts));
    llvmir::verifyModuleOrThrow(module);

    driver::PipelineOptions options; // no wall budgets: verdicts must be
                                     // timing-independent for the
                                     // identity assertion below

    std::cout << "=== E11: parallel validation + solver cache ===\n";
    std::cout << "corpus: " << function_count
              << " Figure 6 functions (seed " << copts.seed << "), jobs "
              << jobs << " (host has "
              << support::ThreadPool::hardwareThreads()
              << " hardware thread(s); workers are capped there)\n\n";

    // Baseline: the serial reference stack (cold solver per query, no
    // preprocessing, no cache, no incremental backend).
    driver::ExecutionOptions serial_exec;
    serial_exec.jobs = 1;
    serial_exec.optimizeQueries = false;
    driver::Pipeline serial_pipeline(options, serial_exec);
    support::Stopwatch watch;
    driver::ModuleReport serial = serial_pipeline.run(module);
    double serial_seconds = watch.seconds();

    driver::ExecutionOptions cached_exec;
    cached_exec.jobs = 1;
    driver::Pipeline cached_pipeline(options, cached_exec);
    watch.reset();
    driver::ModuleReport cached = cached_pipeline.run(module);
    double cached_seconds = watch.seconds();

    driver::ExecutionOptions parallel_exec;
    parallel_exec.jobs = jobs;
    driver::Pipeline parallel_pipeline(options, parallel_exec);
    watch.reset();
    driver::ModuleReport parallel =
        parallel_pipeline.runParallel(module);
    double parallel_seconds = watch.seconds();

    // Parallel + cached verdicts must be byte-identical to serial ones.
    bool identical =
        serial.canonicalSummary() == cached.canonicalSummary() &&
        serial.canonicalSummary() == parallel.canonicalSummary();
    if (!identical) {
        std::cerr << "FAIL: runs disagree on verdicts\n";
        return 1;
    }

    std::cout << serial.renderTable() << "\n";
    std::printf("serial (cold solver):  %7.2f s\n", serial_seconds);
    std::printf("serial + cache:        %7.2f s  (%.2fx)\n",
                cached_seconds, serial_seconds / cached_seconds);
    std::printf("parallel x%-2u + cache: %7.2f s  (%.2fx)\n", jobs,
                parallel_seconds, serial_seconds / parallel_seconds);
    std::printf("solver time: %.2f s of the serial run\n",
                serial.solverStats.totalSeconds);
    std::printf("cache: %llu key hits + %llu model hits / %llu lookups "
                "(%.1f%% avoided the solver), %llu entries, "
                "%llu evictions\n",
                static_cast<unsigned long long>(
                    parallel.cacheStats.hits),
                static_cast<unsigned long long>(
                    parallel.cacheStats.modelHits),
                static_cast<unsigned long long>(
                    parallel.cacheStats.hits +
                    parallel.cacheStats.misses),
                100.0 * parallel.cacheStats.hitRate(),
                static_cast<unsigned long long>(
                    parallel.cacheStats.entries),
                static_cast<unsigned long long>(
                    parallel.cacheStats.evictions));
    std::printf("verdicts: identical across all three runs\n");

    bench::JsonReporter json;
    json.field("bench", std::string("parallel"));
    json.field("functions", uint64_t{function_count});
    json.field("jobs", uint64_t{jobs});
    json.field("serial_seconds", serial_seconds);
    json.field("cached_seconds", cached_seconds);
    json.field("parallel_seconds", parallel_seconds);
    json.field("cached_speedup", serial_seconds / cached_seconds);
    json.field("parallel_speedup", serial_seconds / parallel_seconds);
    json.field("cache_hits", parallel.cacheStats.hits);
    json.field("cache_model_hits", parallel.cacheStats.modelHits);
    json.field("cache_misses", parallel.cacheStats.misses);
    json.field("verdicts_identical", identical);
    json.writeFile("BENCH_parallel.json");
    return 0;
}
