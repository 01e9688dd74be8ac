/** @file runParallel determinism tests: parallel validation must produce
 *  byte-identical ordered verdicts to the serial pipeline, and the shared
 *  QueryCache must survive concurrent hammering from raw threads. */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/driver/corpus.h"
#include "src/driver/pipeline.h"
#include "src/llvmir/parser.h"
#include "src/llvmir/verifier.h"
#include "src/smt/caching_solver.h"
#include "src/smt/term_factory.h"
#include "src/smt/z3_solver.h"

namespace keq::driver {
namespace {

llvmir::Module
corpusModule(size_t functions)
{
    CorpusOptions copts;
    copts.seed = 0x6cc2006; // the Figure 6 corpus seed
    copts.functionCount = functions;
    llvmir::Module module =
        llvmir::parseModule(generateCorpusSource(copts));
    llvmir::verifyModuleOrThrow(module);
    return module;
}

TEST(ParallelPipelineTest, ParallelVerdictsMatchSerialAtEveryJobCount)
{
    llvmir::Module module = corpusModule(12);
    PipelineOptions options; // no wall budgets: verdicts must be
                             // timing-independent

    Pipeline serial(options, ExecutionOptions{.jobs = 1});
    ModuleReport reference = serial.run(module);
    ASSERT_FALSE(reference.functions.empty());

    for (unsigned jobs : {1u, 2u, 8u}) {
        ExecutionOptions exec;
        exec.jobs = jobs;
        Pipeline pipeline(options, exec);
        ModuleReport parallel = pipeline.runParallel(module);
        ASSERT_EQ(parallel.functions.size(),
                  reference.functions.size());
        // Reports come back in module order regardless of completion
        // order, with identical outcomes and verdicts.
        EXPECT_EQ(parallel.canonicalSummary(),
                  reference.canonicalSummary())
            << "jobs=" << jobs;
        // The stats contract holds whether or not queries were cached:
        // every query is resolved by exactly one stage of the stack.
        EXPECT_EQ(parallel.solverStats.queries,
                  reference.solverStats.queries)
            << "jobs=" << jobs;
        EXPECT_EQ(parallel.solverStats.rewriteResolved +
                      parallel.solverStats.sliceResolved +
                      parallel.solverStats.cacheHits +
                      parallel.solverStats.cacheMisses,
                  parallel.solverStats.queries)
            << "jobs=" << jobs;
        // Preprocessing is deterministic and thread-independent, so the
        // per-stage resolution counts match the serial run exactly.
        EXPECT_EQ(parallel.solverStats.rewriteResolved,
                  reference.solverStats.rewriteResolved)
            << "jobs=" << jobs;
        EXPECT_EQ(parallel.solverStats.sliceResolved,
                  reference.solverStats.sliceResolved)
            << "jobs=" << jobs;
    }
}

TEST(ParallelPipelineTest, CachingNeverChangesVerdicts)
{
    llvmir::Module module = corpusModule(10);
    PipelineOptions options;

    ExecutionOptions reference; // no front, no cache, the cold lane
    reference.jobs = 1;
    reference.optimizeQueries = false;
    // The reference stack adopts no cache, not even a handed-in one.
    reference.externalCache = std::make_shared<smt::QueryCache>();
    Pipeline reference_pipeline(options, reference);
    EXPECT_EQ(reference_pipeline.cache(), nullptr);
    ModuleReport cold = reference_pipeline.run(module);
    EXPECT_EQ(cold.cacheStats.hits + cold.cacheStats.misses, 0u);
    EXPECT_EQ(reference.externalCache->stats().misses, 0u);

    ExecutionOptions cached; // defaults: the optimized stack
    ModuleReport warm = Pipeline(options, cached).run(module);
    EXPECT_EQ(cold.canonicalSummary(), warm.canonicalSummary());
    EXPECT_GT(warm.cacheStats.hits + warm.cacheStats.modelHits, 0u)
        << "the Figure 6 corpus repeats query shapes; the cache "
           "should catch some";
}

TEST(ParallelPipelineTest, CachePersistsAcrossRunsOfOnePipeline)
{
    llvmir::Module module = corpusModule(6);
    Pipeline pipeline;
    ModuleReport first = pipeline.run(module);
    ModuleReport second = pipeline.run(module);
    EXPECT_EQ(first.canonicalSummary(), second.canonicalSummary());
    // Every query of the rerun repeats one from the first run: whatever
    // preprocessing does not resolve outright, the warm cache answers
    // without the backend.
    EXPECT_EQ(second.solverStats.cacheMisses, 0u);
    EXPECT_EQ(second.solverStats.cacheHits +
                  second.solverStats.rewriteResolved +
                  second.solverStats.sliceResolved,
              second.solverStats.queries);
    // Preprocessing is deterministic: both runs resolve the same
    // queries at the same stages.
    EXPECT_EQ(second.solverStats.rewriteResolved,
              first.solverStats.rewriteResolved);
    EXPECT_EQ(second.solverStats.sliceResolved,
              first.solverStats.sliceResolved);
}

/**
 * Thread-safety smoke: raw std::threads (the Pipeline clamps its worker
 * count to the host's hardware parallelism, which may be 1) hammer one
 * shared QueryCache through per-thread TermFactory/Z3Solver/CachingSolver
 * stacks — the exact ownership model runParallel uses. Every thread
 * issues a mix of queries with known verdicts, most shared across
 * threads, and every verdict must come back right.
 */
TEST(ParallelPipelineTest, SharedCacheSurvivesConcurrentWorkers)
{
    constexpr unsigned kThreads = 8;
    constexpr unsigned kQueries = 64;
    auto cache = std::make_shared<smt::QueryCache>();

    std::vector<std::vector<smt::SatResult>> verdicts(kThreads);
    std::vector<std::thread> threads;
    for (unsigned t = 0; t < kThreads; ++t) {
        threads.emplace_back([t, &verdicts, cache]() {
            smt::TermFactory tf; // hash-consing stays thread-local
            smt::Z3Solver backend(tf);
            // Preprocessing off: these tiny queries would be resolved
            // by the rewrite engine, and this test is specifically
            // about hammering the shared cache.
            smt::CachingSolver solver(tf, backend, cache,
                                      {.simplify = false,
                                       .slice = false});
            smt::Term x = tf.var("x", smt::Sort::bitVec(32));
            for (unsigned i = 0; i < kQueries; ++i) {
                // Same query stream in every thread: maximal contention
                // on the shards, and (i % 3 == 2) keys repeat.
                uint64_t k = i % 3 == 2 ? i - 1 : i;
                smt::Term eq_k =
                    tf.mkEq(x, tf.bvConst(32, 0x1000 + k));
                if (k % 2 == 0) {
                    // Satisfiable: x == c.
                    verdicts[t].push_back(solver.checkSat({eq_k}));
                } else {
                    // Contradiction: x == c && x == c + 1.
                    smt::Term eq_k1 = tf.mkEq(
                        x, tf.bvConst(32, 0x1000 + k + 1));
                    verdicts[t].push_back(
                        solver.checkSat({eq_k, eq_k1}));
                }
            }
        });
    }
    for (std::thread &thread : threads)
        thread.join();

    for (unsigned t = 0; t < kThreads; ++t) {
        ASSERT_EQ(verdicts[t].size(), kQueries);
        for (unsigned i = 0; i < kQueries; ++i) {
            uint64_t k = i % 3 == 2 ? i - 1 : i;
            smt::SatResult expected = k % 2 == 0
                                          ? smt::SatResult::Sat
                                          : smt::SatResult::Unsat;
            EXPECT_EQ(verdicts[t][i], expected)
                << "thread " << t << " query " << i;
        }
    }

    smt::CacheStats stats = cache->stats();
    EXPECT_EQ(stats.hits + stats.misses,
              uint64_t{kThreads} * kQueries);
    EXPECT_GT(stats.hits, 0u) << "threads must share verdicts";
    EXPECT_LE(stats.modelHits, stats.misses);
}

} // namespace
} // namespace keq::driver
