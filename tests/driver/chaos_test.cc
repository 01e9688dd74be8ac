/** @file Chaos suite (ctest -L chaos): the fault-tolerance contract,
 *  end to end, on the Figure 6 corpus. Injected solver faults must
 *  never change a verdict (the guard's pristine fallback rung wins),
 *  the pipeline must terminate with every failure classified, and
 *  checkpointed runs — pipeline and fuzz campaign — must survive
 *  truncation + resume with byte-identical canonical summaries. */

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <unistd.h>

#include "src/driver/corpus.h"
#include "src/driver/pipeline.h"
#include "src/fuzz/campaign.h"
#include "src/llvmir/parser.h"
#include "src/llvmir/verifier.h"
#include "src/support/diagnostics.h"

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

struct TempFile
{
    std::string path;

    explicit TempFile(const std::string &stem)
        : path((std::filesystem::temp_directory_path() /
                ("keq-chaos-test-" + stem + "-" +
                 std::to_string(::getpid()) + ".log"))
                   .string())
    {
        std::remove(path.c_str());
    }

    ~TempFile() { std::remove(path.c_str()); }

    std::string
    read() const
    {
        std::ifstream in(path, std::ios::binary);
        return std::string(std::istreambuf_iterator<char>(in), {});
    }

    void
    write(const std::string &bytes) const
    {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out << bytes;
    }
};

/** ~10% fault rate across all kinds — the ISSUE's headline scenario. */
smt::FaultPlan
tenPercentChaos()
{
    smt::FaultPlan plan;
    plan.seed = 0xc0ffee;
    plan.crashPercent = 3;
    plan.timeoutPercent = 3;
    plan.unknownPercent = 4;
    return plan;
}

TEST(ChaosTest, InjectedFaultsNeverChangeVerdicts)
{
    llvmir::Module module = corpusModule(8);
    PipelineOptions options;

    ModuleReport clean = Pipeline(options, {}).run(module);
    ASSERT_FALSE(clean.functions.empty());
    for (const FunctionReport &report : clean.functions)
        EXPECT_EQ(report.verdict.failure, FailureKind::None);

    ExecutionOptions chaos;
    chaos.faults = tenPercentChaos();
    chaos.solverRetries = 2;
    ModuleReport faulted = Pipeline(options, chaos).run(module);

    EXPECT_EQ(faulted.canonicalSummary(), clean.canonicalSummary())
        << "the pristine fallback rung must reconverge every verdict";
    EXPECT_GT(faulted.solverStats.faultsInjected, 0u)
        << "10% over a corpus run must actually fire";
    EXPECT_GT(faulted.solverStats.guardedRetries +
                  faulted.solverStats.guardedEscalations,
              0u)
        << "every injected fault costs recovery work, not a verdict";
}

TEST(ChaosTest, FaultScheduleIsSchedulingIndependent)
{
    llvmir::Module module = corpusModule(8);
    PipelineOptions options;

    ExecutionOptions serial;
    serial.faults = tenPercentChaos();
    serial.solverRetries = 2;
    ModuleReport one = Pipeline(options, serial).run(module);

    ExecutionOptions threaded = serial;
    threaded.jobs = 4;
    ModuleReport many =
        Pipeline(options, threaded).runParallel(module);

    // Per-function fault plans derive from the function name, not the
    // scheduling order, so a parallel chaos run draws the same faults.
    EXPECT_EQ(one.canonicalSummary(), many.canonicalSummary());
    EXPECT_EQ(one.solverStats.faultsInjected,
              many.solverStats.faultsInjected);
}

TEST(ChaosTest, SaturatedFaultsTerminateWithClassifiedFailures)
{
    llvmir::Module module = corpusModule(4);
    PipelineOptions options;

    ExecutionOptions storm;
    storm.faults = tenPercentChaos();
    storm.faults.crashPercent = 40;
    storm.faults.unknownPercent = 40;
    storm.faults.timeoutPercent = 20;
    storm.solverRetries = 1;
    storm.deadlineMs = 30000; // watchdog armed, but generous

    ModuleReport report = Pipeline(options, storm).run(module);
    ASSERT_EQ(report.functions.size(), 4u)
        << "a fault storm must never lose a function report";
    for (const FunctionReport &fn : report.functions) {
        if (fn.outcome == Outcome::Succeeded) {
            EXPECT_EQ(fn.verdict.failure, FailureKind::None);
        } else {
            EXPECT_NE(fn.verdict.failure, FailureKind::None)
                << fn.function << ": every failure must be classified";
        }
    }
    EXPECT_GT(report.solverStats.faultsInjected, 0u);
}

TEST(ChaosTest, MidRunCancellationUnderParallelismIsNeverJournaled)
{
    llvmir::Module module = corpusModule(10);
    PipelineOptions options;
    ModuleReport reference = Pipeline(options, {}).run(module);

    TempFile checkpoint("midcancel");
    ExecutionOptions exec;
    exec.jobs = 4;
    exec.checkpointPath = checkpoint.path;
    exec.cancel = support::CancellationToken::create();
    std::thread canceller([&exec] {
        std::this_thread::sleep_for(std::chrono::milliseconds(60));
        exec.cancel.cancel(); // SIGINT lands while 4 workers are busy
    });
    ModuleReport stormed = Pipeline(options, exec).runParallel(module);
    canceller.join();

    // Every function is reported, split cleanly into completed-before-
    // the-cancel and cancelled; nothing hangs, nothing is lost.
    ASSERT_EQ(stormed.functions.size(), reference.functions.size());
    size_t completed = 0;
    for (const FunctionReport &fn : stormed.functions) {
        if (fn.verdict.failure == FailureKind::Cancelled) {
            EXPECT_EQ(fn.outcome, Outcome::Timeout);
        } else {
            EXPECT_EQ(fn.verdict.failure, FailureKind::None);
            ++completed;
        }
    }

    // Cancelled verdicts must never reach the journal: a resume may
    // only restore genuinely completed functions, and recomputing the
    // remainder converges on the clean summary.
    ExecutionOptions resume;
    resume.checkpointPath = checkpoint.path;
    resume.resume = true;
    ModuleReport resumed = Pipeline(options, resume).run(module);
    EXPECT_LE(resumed.resumedFunctions, completed);
    EXPECT_EQ(resumed.canonicalSummary(), reference.canonicalSummary());
}

TEST(ChaosTest, CancelledRunReportsEveryFunctionWithoutJournaling)
{
    llvmir::Module module = corpusModule(4);
    TempFile checkpoint("cancelled");

    ExecutionOptions exec;
    exec.cancel = support::CancellationToken::create();
    exec.cancel.cancel(); // cancelled before the first function
    exec.checkpointPath = checkpoint.path;
    ModuleReport report = Pipeline({}, exec).run(module);

    ASSERT_EQ(report.functions.size(), 4u);
    for (const FunctionReport &fn : report.functions) {
        EXPECT_EQ(fn.outcome, Outcome::Timeout);
        EXPECT_EQ(fn.verdict.failure, FailureKind::Cancelled);
    }

    // Cancelled verdicts are an artifact of this run: a resumed run
    // must recompute them all.
    ExecutionOptions resume;
    resume.checkpointPath = checkpoint.path;
    resume.resume = true;
    ModuleReport resumed = Pipeline({}, resume).run(module);
    EXPECT_EQ(resumed.resumedFunctions, 0u);
    EXPECT_EQ(resumed.countOutcome(Outcome::Succeeded),
              Pipeline({}, {}).run(module).countOutcome(
                  Outcome::Succeeded));
}

TEST(ChaosTest, TruncatedCheckpointResumesToTheExactSummary)
{
    llvmir::Module module = corpusModule(8);
    PipelineOptions options;
    ModuleReport reference = Pipeline(options, {}).run(module);

    TempFile checkpoint("resume");
    ExecutionOptions first;
    first.checkpointPath = checkpoint.path;
    ModuleReport journaled = Pipeline(options, first).run(module);
    EXPECT_EQ(journaled.canonicalSummary(),
              reference.canonicalSummary());

    // SIGKILL mid-append: drop the tail of the journal.
    std::string bytes = checkpoint.read();
    ASSERT_GT(bytes.size(), 200u);
    checkpoint.write(bytes.substr(0, bytes.size() - 100));

    ExecutionOptions second;
    second.checkpointPath = checkpoint.path;
    second.resume = true;
    ModuleReport resumed = Pipeline(options, second).run(module);

    EXPECT_EQ(resumed.canonicalSummary(), reference.canonicalSummary())
        << "resume must reproduce the uninterrupted run exactly";
    EXPECT_GT(resumed.resumedFunctions, 0u)
        << "the intact journal prefix must be honoured";
    EXPECT_LT(resumed.resumedFunctions, module.functions.size())
        << "the truncated tail must be recomputed";
}

TEST(ChaosTest, ChaoticCheckpointedParallelResumeStillConverges)
{
    // The headline composition: faults + parallelism + truncation +
    // resume, all at once, must still reproduce the clean summary.
    llvmir::Module module = corpusModule(8);
    PipelineOptions options;
    ModuleReport reference = Pipeline(options, {}).run(module);

    TempFile checkpoint("chaotic");
    ExecutionOptions chaos;
    chaos.faults = tenPercentChaos();
    chaos.solverRetries = 2;
    chaos.jobs = 4;
    chaos.checkpointPath = checkpoint.path;
    Pipeline(options, chaos).runParallel(module);

    std::string bytes = checkpoint.read();
    ASSERT_GT(bytes.size(), 200u);
    checkpoint.write(bytes.substr(0, bytes.size() - 100));

    ExecutionOptions resume = chaos;
    resume.resume = true;
    ModuleReport resumed =
        Pipeline(options, resume).runParallel(module);
    EXPECT_EQ(resumed.canonicalSummary(), reference.canonicalSummary());
}

TEST(ChaosTest, ResumeAgainstADifferentModuleFailsLoudly)
{
    TempFile checkpoint("foreign");
    llvmir::Module eight = corpusModule(8);
    ExecutionOptions first;
    first.checkpointPath = checkpoint.path;
    Pipeline({}, first).run(eight);

    llvmir::Module six = corpusModule(6);
    ExecutionOptions resume;
    resume.checkpointPath = checkpoint.path;
    resume.resume = true;
    EXPECT_THROW(Pipeline({}, resume).run(six), support::Error)
        << "splicing stale verdicts into another module is a user error";
}

TEST(ChaosTest, CampaignCheckpointResumesToTheExactSummary)
{
    fuzz::CampaignOptions options;
    options.seed = 20260806;
    options.iterations = 6;
    options.jobs = 1;
    options.calibrate = false;
    options.generator.targetOps = 10;
    options.oracle.trials = 4;
    std::string reference =
        fuzz::runCampaign(options).canonicalSummary();

    TempFile checkpoint("campaign");
    fuzz::CampaignOptions journaled = options;
    journaled.checkpointPath = checkpoint.path;
    EXPECT_EQ(fuzz::runCampaign(journaled).canonicalSummary(),
              reference);

    std::string bytes = checkpoint.read();
    ASSERT_GT(bytes.size(), 100u);
    checkpoint.write(bytes.substr(0, bytes.size() - 60));

    fuzz::CampaignOptions resumed = journaled;
    resumed.resume = true;
    fuzz::CampaignResult result = fuzz::runCampaign(resumed);
    EXPECT_EQ(result.canonicalSummary(), reference);
    EXPECT_GT(result.resumedIterations, 0u);
    EXPECT_LT(result.resumedIterations, options.iterations);
}

TEST(ChaosTest, CampaignResumeWithAForeignSeedFailsLoudly)
{
    fuzz::CampaignOptions options;
    options.seed = 111;
    options.iterations = 3;
    options.calibrate = false;
    options.generator.targetOps = 10;
    options.oracle.trials = 2;

    TempFile checkpoint("campaign-seed");
    options.checkpointPath = checkpoint.path;
    fuzz::runCampaign(options);

    fuzz::CampaignOptions foreign = options;
    foreign.seed = 222;
    foreign.resume = true;
    EXPECT_THROW(fuzz::runCampaign(foreign), support::Error);
}

} // namespace
} // namespace keq::driver
