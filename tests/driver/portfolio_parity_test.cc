/** @file Portfolio parity suite (ctest -L portfolio): racing solver
 *  strategy lanes must be invisible in every verdict. Portfolio off is
 *  byte-identical to the pre-portfolio pipeline; 2- and 3-lane races
 *  (in-process and sandboxed) reproduce the single-lane verdicts over
 *  the synthetic Figure 6 corpus and all checked-in conformance corpus
 *  files; batched discharge is verdict-neutral; a losing lane's
 *  cancellation never surfaces in the Figure 6 failure taxonomy; and a
 *  chaos storm over racing workers stays contained per query. */

#include <gtest/gtest.h>

#include <string>
#include <unordered_map>
#include <vector>

#include "src/conformance/corpus.h"
#include "src/conformance/runner.h"
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

uint64_t
portfolioWinTotal(const smt::SolverStats &stats)
{
    uint64_t wins = 0;
    for (uint64_t lane_wins : stats.portfolioWins)
        wins += lane_wins;
    return wins;
}

TEST(PortfolioParity, PortfolioOffIsByteIdenticalToTheSeedStack)
{
    llvmir::Module module = corpusModule(8);
    PipelineOptions options;

    ModuleReport reference = Pipeline(options, {}).run(module);

    ExecutionOptions one_lane;
    one_lane.portfolioLaneSpec = smt::defaultPortfolioSpec(1);
    ModuleReport single = Pipeline(options, one_lane).run(module);

    EXPECT_EQ(single.canonicalSummary(), reference.canonicalSummary())
        << "--portfolio=1 must leave the stack byte-identical";
    EXPECT_EQ(portfolioWinTotal(single.solverStats), 0u);
    EXPECT_EQ(single.solverStats.portfolioCancellations, 0u);
    EXPECT_EQ(single.solverStats.crossLaneDisagreements, 0u);
    EXPECT_EQ(single.solverStats.batchedQueries, 0u);
}

TEST(PortfolioParity, ThreeLaneRaceReproducesSingleLaneVerdicts)
{
    llvmir::Module module = corpusModule(10);
    PipelineOptions options;

    ModuleReport reference = Pipeline(options, {}).run(module);

    ExecutionOptions raced;
    raced.portfolioLaneSpec = smt::defaultPortfolioSpec(3);
    ModuleReport portfolio = Pipeline(options, raced).run(module);

    EXPECT_EQ(portfolio.canonicalSummary(),
              reference.canonicalSummary())
        << "the checker must not be able to tell queries were raced";
    EXPECT_GT(portfolioWinTotal(portfolio.solverStats), 0u)
        << "the portfolio must actually have raced";
    EXPECT_EQ(portfolio.solverStats.crossLaneDisagreements, 0u);
}

TEST(PortfolioParity, ExplicitLaneSpecReproducesVerdicts)
{
    llvmir::Module module = corpusModule(6);
    PipelineOptions options;

    ModuleReport reference = Pipeline(options, {}).run(module);

    ExecutionOptions raced;
    raced.portfolioLaneSpec = "default,seed5,cold:random_seed=3";
    ModuleReport portfolio = Pipeline(options, raced).run(module);

    EXPECT_EQ(portfolio.canonicalSummary(),
              reference.canonicalSummary());
    EXPECT_GT(portfolioWinTotal(portfolio.solverStats), 0u);
}

TEST(PortfolioParity, InvalidLaneSpecFailsFunctionsAsUnsupported)
{
    llvmir::Module module = corpusModule(3);
    PipelineOptions options;

    ExecutionOptions bad;
    bad.portfolioLaneSpec = "warp-drive";
    ModuleReport report = Pipeline(options, bad).run(module);

    ASSERT_EQ(report.functions.size(), 3u);
    for (const FunctionReport &fn : report.functions) {
        EXPECT_EQ(fn.outcome, Outcome::Unsupported)
            << fn.function << ": a malformed roster must fail loudly, "
            << "not silently race a default";
    }
}

TEST(PortfolioParity, BatchedDischargeIsVerdictNeutral)
{
    // The synthetic Figure 6 corpus folds every sync-point obligation
    // away before the solver sees it, so it checks neutrality only.
    llvmir::Module module = corpusModule(10);
    PipelineOptions options;
    ModuleReport reference = Pipeline(options, {}).run(module);

    PipelineOptions batched_options;
    batched_options.checker.batchDischarge = true;
    ModuleReport batched = Pipeline(batched_options, {}).run(module);

    EXPECT_EQ(batched.canonicalSummary(), reference.canonicalSummary())
        << "hypothesis splitting must never change a verdict";
    EXPECT_EQ(reference.solverStats.batchedQueries, 0u);

    // The checked-in corpus has files (gep_nested, unreachable_path,
    // ...) whose obligations survive folding and genuinely hit the
    // solver through the batched path: sweep them all, byte-compare
    // verdicts, and require the batch counter to have moved somewhere.
    uint64_t total_batched = 0;
    for (const conformance::CorpusCase &corpus_case :
         conformance::loadCorpusDir(KEQ_CORPUS_DIR)) {
        llvmir::Module corpus_module =
            llvmir::parseModule(corpus_case.source);
        llvmir::verifyModuleOrThrow(corpus_module);
        PipelineOptions case_options;
        case_options.isel = corpus_case.isel;
        ModuleReport case_reference =
            Pipeline(case_options, {}).run(corpus_module);

        PipelineOptions case_batched = case_options;
        case_batched.checker.batchDischarge = true;
        ModuleReport case_report =
            Pipeline(case_batched, {}).run(corpus_module);

        EXPECT_EQ(case_report.canonicalSummary(),
                  case_reference.canonicalSummary())
            << corpus_case.name;
        total_batched += case_report.solverStats.batchedQueries;
    }
    EXPECT_GT(total_batched, 0u)
        << "the batched path must actually have discharged obligations";
}

/**
 * The Figure 6 taxonomy regression for losing lanes: a raced run whose
 * losers get wire-cancelled must never report a function (or journal a
 * checkpoint record) classified FailureKind::Cancelled — that
 * classification is reserved for *user* cancellation (SIGINT).
 */
TEST(PortfolioParity, LosingLaneCancellationsNeverEnterTheTaxonomy)
{
    llvmir::Module module = corpusModule(10);
    PipelineOptions options;

    ExecutionOptions raced;
    raced.portfolioLaneSpec = smt::defaultPortfolioSpec(3);
    ModuleReport portfolio = Pipeline(options, raced).run(module);

    for (const FunctionReport &fn : portfolio.functions) {
        EXPECT_NE(fn.verdict.failure, FailureKind::Cancelled)
            << fn.function
            << ": loser reaping leaked into the failure taxonomy";
    }
    // The verdict counters keep the one-logical-query contract: every
    // counted query has exactly one verdict even though up to three
    // lanes answered it.
    const smt::SolverStats &stats = portfolio.solverStats;
    EXPECT_EQ(stats.sat + stats.unsat + stats.unknown, stats.queries);
}

TEST(PortfolioParity, SandboxedPortfolioMatchesReference)
{
    llvmir::Module module = corpusModule(8);
    PipelineOptions options;

    ModuleReport reference = Pipeline(options, {}).run(module);

    ExecutionOptions raced;
    raced.sandbox = true;
    raced.workerPath = KEQ_WORKER_BIN;
    raced.portfolioLaneSpec = smt::defaultPortfolioSpec(2);
    ModuleReport portfolio = Pipeline(options, raced).run(module);

    EXPECT_EQ(portfolio.canonicalSummary(),
              reference.canonicalSummary());
    EXPECT_GT(portfolio.solverStats.wireBytesSent, 0u)
        << "the sandbox must actually have been used";
    EXPECT_GT(portfolioWinTotal(portfolio.solverStats), 0u)
        << "worker groups must actually have raced";
    EXPECT_EQ(portfolio.solverStats.crossLaneDisagreements, 0u);
    for (const FunctionReport &fn : portfolio.functions)
        EXPECT_NE(fn.verdict.failure, FailureKind::Cancelled);
}

/** The verdict-identity prefix of a canonical summary line: function,
 *  outcome, verdict kind, failure, refinement flag — everything before
 *  the query/step accounting counters. */
std::string
verdictPrefix(const std::string &canonical_line)
{
    size_t counters = canonical_line.find(" | queries=");
    return counters == std::string::npos
               ? canonical_line
               : canonical_line.substr(0, counters);
}

/**
 * Chaos over a racing pool: real SIGKILL/SIGSEGV landing on lane
 * workers mid-race. A race that loses one lane converges on the
 * survivor; a race that loses every lane costs exactly that query.
 * Either way each function stays accounted: a clean function matches
 * the clean run byte-for-byte, a function that *absorbed* a kill
 * (checker degraded around one lost query and still proved the
 * verdict) matches on the verdict and shows the crash in its own
 * stats, and a function that lost a query outright carries a
 * worker-death/timeout classification — never Cancelled, never a lost
 * report, never a hang.
 */
TEST(PortfolioChaos, LaneKillsMidRaceStayContainedPerQuery)
{
    llvmir::Module module = corpusModule(12);
    PipelineOptions options;
    ModuleReport clean = Pipeline(options, {}).run(module);
    std::unordered_map<std::string, std::string> clean_lines;
    for (const FunctionReport &fn : clean.functions)
        clean_lines[fn.function] = fn.canonicalSummary();

    ExecutionOptions chaos;
    chaos.sandbox = true;
    chaos.workerPath = KEQ_WORKER_BIN;
    chaos.portfolioLaneSpec = smt::defaultPortfolioSpec(2);
    chaos.jobs = 2;
    chaos.sandboxChaosKillRate = 0.25;
    chaos.sandboxChaosSeed = 0xbadcafe;
    ModuleReport stormed = Pipeline(options, chaos).runParallel(module);

    ASSERT_EQ(stormed.functions.size(), clean.functions.size())
        << "lane deaths must never lose a function report";
    for (const FunctionReport &fn : stormed.functions) {
        if (fn.verdict.failure == FailureKind::None) {
            if (fn.canonicalSummary() != clean_lines[fn.function]) {
                // The query accounting may differ only when this
                // function really absorbed a worker death (e.g. a
                // killed path-equivalence probe downgraded the
                // hypothesis without changing the verdict).
                EXPECT_EQ(verdictPrefix(fn.canonicalSummary()),
                          verdictPrefix(clean_lines[fn.function]))
                    << fn.function;
                EXPECT_GT(fn.verdict.stats.solverStats.workerCrashes +
                              fn.verdict.stats.solverStats
                                  .heartbeatTimeouts,
                          0u)
                    << fn.function
                    << ": accounting drifted without a recorded crash";
            }
        } else {
            EXPECT_TRUE(fn.verdict.failure == FailureKind::WorkerKilled ||
                        fn.verdict.failure == FailureKind::WorkerOom ||
                        fn.verdict.failure == FailureKind::Timeout ||
                        fn.verdict.failure ==
                            FailureKind::SolverUnknown)
                << fn.function << ": "
                << failureKindName(fn.verdict.failure);
            EXPECT_NE(fn.outcome, Outcome::Succeeded);
        }
    }
}

/**
 * Every checked-in conformance corpus file through the portfolio, both
 * in-process (3 lanes) and sandboxed (2 lanes), byte-compared against
 * the reference cell the way the conformance matrix does.
 */
TEST(PortfolioConformance, AllCorpusFilesAgreeAcrossPortfolioCells)
{
    using conformance::CorpusCase;
    using conformance::MatrixCell;
    using conformance::RunnerOptions;

    std::vector<CorpusCase> cases =
        conformance::loadCorpusDir(KEQ_CORPUS_DIR);
    ASSERT_FALSE(cases.empty());

    RunnerOptions options;
    options.workerPath = KEQ_WORKER_BIN;
    MatrixCell reference_cell{false, true, true, 1, 1};
    MatrixCell raced_in_process{false, true, true, 1, 3};
    MatrixCell raced_sandboxed{true, true, true, 1, 2};

    for (const CorpusCase &corpus_case : cases) {
        ModuleReport reference =
            conformance::runCase(corpus_case, reference_cell, options);
        std::string reference_outcomes =
            conformance::outcomeSectionJson(reference);

        ModuleReport in_process =
            conformance::runCase(corpus_case, raced_in_process, options);
        EXPECT_EQ(conformance::outcomeSectionJson(in_process),
                  reference_outcomes)
            << corpus_case.name << " [in-process portfolio]";
        EXPECT_EQ(in_process.canonicalSummary(),
                  reference.canonicalSummary())
            << corpus_case.name << " [in-process portfolio]";

        bool degraded = false;
        ModuleReport sandboxed =
            conformance::runCase(corpus_case, raced_sandboxed, options, &degraded);
        EXPECT_FALSE(degraded) << corpus_case.name;
        EXPECT_EQ(conformance::outcomeSectionJson(sandboxed),
                  reference_outcomes)
            << corpus_case.name << " [sandboxed portfolio]";
        EXPECT_EQ(sandboxed.canonicalSummary(),
                  reference.canonicalSummary())
            << corpus_case.name << " [sandboxed portfolio]";
    }
}

} // namespace
} // namespace keq::driver
