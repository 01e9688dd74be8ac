/** @file Sandbox chaos suite (ctest -L chaos): the out-of-process
 *  solver pool under the full pipeline. A sandboxed run must reproduce
 *  the in-process verdicts exactly; a chaos-monkey run delivering real
 *  SIGKILL/SIGSEGV to busy workers must lose at most the individually
 *  killed queries (classified, never a hang, never a lost function);
 *  and a missing worker binary must degrade to in-process solving, not
 *  fail the run. */

#include <gtest/gtest.h>

#include <string>
#include <unordered_map>

#include "src/driver/corpus.h"
#include "src/driver/pipeline.h"
#include "src/llvmir/parser.h"
#include "src/llvmir/verifier.h"

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

ExecutionOptions
sandboxed()
{
    ExecutionOptions exec;
    exec.sandbox = true;
    exec.workerPath = KEQ_WORKER_BIN;
    return exec;
}

TEST(SandboxChaosTest, SandboxedVerdictsMatchInProcessExactly)
{
    llvmir::Module module = corpusModule(10);
    PipelineOptions options;

    ModuleReport in_process = Pipeline(options, {}).run(module);
    ModuleReport via_sandbox =
        Pipeline(options, sandboxed()).run(module);

    EXPECT_EQ(via_sandbox.canonicalSummary(),
              in_process.canonicalSummary())
        << "the checker must not be able to tell the solver lives in "
           "another process";
    EXPECT_GT(via_sandbox.solverStats.wireBytesSent, 0u)
        << "the sandbox must actually have been used";
    EXPECT_EQ(via_sandbox.solverStats.workerCrashes, 0u);
}

TEST(SandboxChaosTest, ParallelSandboxedRunMatchesSerial)
{
    llvmir::Module module = corpusModule(10);
    PipelineOptions options;

    ModuleReport serial = Pipeline(options, sandboxed()).run(module);

    ExecutionOptions parallel = sandboxed();
    parallel.jobs = 4;
    ModuleReport threaded =
        Pipeline(options, parallel).runParallel(module);

    EXPECT_EQ(threaded.canonicalSummary(), serial.canonicalSummary());
}

TEST(SandboxChaosTest, UnoptimizedSandboxedRunSolvesOnTheColdLane)
{
    // keqc --gen-corpus=40 --corpus-seed=7: @fn35's queries share
    // assertion prefixes, so an incremental backend would reuse them.
    CorpusOptions copts;
    copts.seed = 7;
    copts.functionCount = 40;
    llvmir::Module module =
        llvmir::parseModule(generateCorpusSource(copts));
    llvmir::verifyModuleOrThrow(module);
    PipelineOptions options;

    ExecutionOptions unoptimized;
    unoptimized.optimizeQueries = false;
    ModuleReport in_process = Pipeline(options, unoptimized).run(module);

    ExecutionOptions exec = sandboxed();
    exec.optimizeQueries = false;
    ModuleReport via_sandbox = Pipeline(options, exec).run(module);

    EXPECT_EQ(via_sandbox.canonicalSummary(),
              in_process.canonicalSummary());
    // Both sides run the reference stack: the pipeline builds no front
    // and the workers run none of their own, so no query is rewritten,
    // sliced or looked up on either side of the pipe. The worker builds
    // the lane the pipeline names, the cold backend, which never reuses
    // a scope, so every query reaches a cold check, exactly as in
    // process.
    for (const ModuleReport *report : {&in_process, &via_sandbox}) {
        EXPECT_EQ(report->solverStats.rewriteResolved, 0u);
        EXPECT_EQ(report->solverStats.sliceResolved, 0u);
        EXPECT_EQ(report->solverStats.cacheHits, 0u);
        EXPECT_EQ(report->solverStats.cacheMisses, 0u);
        EXPECT_EQ(report->solverStats.incrementalReused, 0u);
        EXPECT_EQ(report->solverStats.incrementalSolves, 0u);
    }
    EXPECT_GT(via_sandbox.solverStats.coldSolves, 0u);
    EXPECT_EQ(via_sandbox.solverStats.coldSolves,
              in_process.solverStats.coldSolves);
    EXPECT_GT(via_sandbox.solverStats.wireBytesSent, 0u)
        << "the sandbox must actually have been used";
}

TEST(SandboxChaosTest, RealWorkerKillsAreContainedPerQuery)
{
    llvmir::Module module = corpusModule(12);
    PipelineOptions options;
    ModuleReport clean = Pipeline(options, {}).run(module);
    std::unordered_map<std::string, std::string> clean_lines;
    for (const FunctionReport &fn : clean.functions)
        clean_lines[fn.function] = fn.canonicalSummary();

    // Real chaos: every 5 ms each busy worker has a 30% chance of
    // taking a genuine SIGKILL or SIGSEGV, across 4 threads.
    ExecutionOptions chaos = sandboxed();
    chaos.jobs = 4;
    chaos.sandboxChaosKillRate = 0.3;
    chaos.sandboxChaosSeed = 0xdead5eed;
    ModuleReport stormed =
        Pipeline(options, chaos).runParallel(module);

    ASSERT_EQ(stormed.functions.size(), clean.functions.size())
        << "worker deaths must never lose a function report";
    for (const FunctionReport &fn : stormed.functions) {
        if (fn.verdict.failure == FailureKind::None) {
            // Untouched by the monkey: byte-identical to the clean run.
            EXPECT_EQ(fn.canonicalSummary(), clean_lines[fn.function]);
        } else {
            // A kill landed on this function's query: the loss is
            // classified as a worker death (or the heartbeat deadline),
            // never an unexplained failure.
            EXPECT_TRUE(fn.verdict.failure == FailureKind::WorkerKilled ||
                        fn.verdict.failure == FailureKind::WorkerOom ||
                        fn.verdict.failure == FailureKind::Timeout)
                << fn.function << ": "
                << failureKindName(fn.verdict.failure);
            EXPECT_NE(fn.outcome, Outcome::Succeeded);
        }
    }
}

TEST(SandboxChaosTest, MissingWorkerBinaryDegradesToInProcess)
{
    llvmir::Module module = corpusModule(6);
    PipelineOptions options;
    ModuleReport reference = Pipeline(options, {}).run(module);

    ExecutionOptions broken = sandboxed();
    broken.workerPath = "/nonexistent/keq-solver-worker";
    ModuleReport degraded = Pipeline(options, broken).run(module);

    EXPECT_EQ(degraded.canonicalSummary(), reference.canonicalSummary())
        << "degradation must warn and proceed, not fail the run";
    EXPECT_EQ(degraded.solverStats.wireBytesSent, 0u);
}

} // namespace
} // namespace keq::driver
