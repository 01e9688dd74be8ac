/** @file Failure taxonomy end-to-end: each FailureKind is produced by
 *  the matching injected fault when driven through the real Checker,
 *  and every kind survives a checkpoint serialization round-trip. */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/driver/checkpoint.h"
#include "src/driver/corpus.h"
#include "src/driver/pipeline.h"
#include "src/isel/isel.h"
#include "src/keq/checker.h"
#include "src/llvmir/layout_builder.h"
#include "src/llvmir/parser.h"
#include "src/llvmir/symbolic_semantics.h"
#include "src/llvmir/verifier.h"
#include "src/smt/fault_injection.h"
#include "src/smt/z3_solver.h"
#include "src/vcgen/vcgen.h"
#include "src/vx86/symbolic_semantics.h"

namespace keq::checker {
namespace {

/** The Figure 6 corpus: deterministic, and (unlike hand-written toy
 *  loops, which constant folding discharges without Z3) it contains
 *  functions whose obligations reach the solver — which is what the
 *  fault injector needs. */
const std::string &
corpusSource()
{
    static const std::string source = [] {
        driver::CorpusOptions copts;
        copts.seed = 0x6cc2006;
        // Large enough to contain a function whose verdict depends on
        // a definite solver answer (see queryHeavyIndex).
        copts.functionCount = 16;
        return driver::generateCorpusSource(copts);
    }();
    return source;
}

/** Manual pipeline over one corpus function, with a fault injector
 *  wedged between the Checker and Z3. */
struct FaultedPipeline
{
    llvmir::Module module;
    vx86::MModule mmodule;
    isel::FunctionHints hints;
    sem::SyncPointSet points;
    smt::TermFactory factory;
    mem::MemoryLayout layout;
    std::unique_ptr<llvmir::SymbolicSemantics> semA;
    std::unique_ptr<vx86::SymbolicSemantics> semB;
    std::unique_ptr<smt::Z3Solver> z3;
    std::unique_ptr<smt::FaultInjectingSolver> solver;
    sem::IselAcceptability acceptability;
    std::string name;

    FaultedPipeline(size_t index, smt::FaultPlan plan)
        : module(llvmir::parseModule(corpusSource()))
    {
        llvmir::verifyModuleOrThrow(module);
        const llvmir::Function &fn = module.functions.at(index);
        name = fn.name;
        vx86::MFunction mfn = isel::lowerFunction(module, fn, {}, hints);
        vcgen::VcResult vc = vcgen::generateSyncPoints(fn, mfn, hints);
        points = vc.points;
        mmodule.functions.push_back(std::move(mfn));
        llvmir::populateLayout(module, layout);
        semA = std::make_unique<llvmir::SymbolicSemantics>(module,
                                                           factory,
                                                           layout);
        semB = std::make_unique<vx86::SymbolicSemantics>(mmodule,
                                                         factory,
                                                         layout);
        z3 = std::make_unique<smt::Z3Solver>(factory);
        solver = std::make_unique<smt::FaultInjectingSolver>(
            factory, *z3, plan);
    }

    Verdict
    check(CheckerConfig config = {})
    {
        Checker checker(*semA, *semB, acceptability, *solver, config);
        return checker.check(name, name, points);
    }
};

smt::FaultPlan
certainFault(unsigned smt::FaultPlan::*rate)
{
    smt::FaultPlan plan;
    plan.seed = 42;
    plan.*rate = 100;
    return plan;
}

/** First corpus function whose verdict *depends* on a definite solver
 *  answer: clean validation succeeds with real queries, and an
 *  injected Unknown degrades it to a classified failure. (On a
 *  fold-only function the fault tests below would be vacuous.) */
size_t
queryHeavyIndex()
{
    static const size_t index = [] {
        llvmir::Module probe = llvmir::parseModule(corpusSource());
        for (size_t i = 0; i < probe.functions.size(); ++i) {
            if (probe.functions[i].isDeclaration())
                continue;
            FaultedPipeline clean(i, smt::FaultPlan{});
            Verdict healthy = clean.check();
            if (!healthy.validated() ||
                healthy.stats.solverQueries == 0) {
                continue;
            }
            FaultedPipeline faulted(
                i, certainFault(&smt::FaultPlan::unknownPercent));
            if (faulted.check().failure == FailureKind::SolverUnknown)
                return i;
        }
        return size_t(-1);
    }();
    return index;
}

TEST(FailureTaxonomyTest, CorpusHasAQueryHeavyFunction)
{
    ASSERT_NE(queryHeavyIndex(), size_t(-1))
        << "no corpus function reaches the solver; the fault tests "
           "below would be vacuous";
}

TEST(FailureTaxonomyTest, CleanRunCarriesNoFailure)
{
    FaultedPipeline pipeline(queryHeavyIndex(), smt::FaultPlan{});
    Verdict verdict = pipeline.check();
    EXPECT_TRUE(verdict.validated());
    EXPECT_EQ(verdict.failure, FailureKind::None);
    EXPECT_GT(verdict.stats.solverQueries, 0u);
}

TEST(FailureTaxonomyTest, InjectedTimeoutClassifiesAsTimeout)
{
    FaultedPipeline pipeline(
        queryHeavyIndex(),
        certainFault(&smt::FaultPlan::timeoutPercent));
    Verdict verdict = pipeline.check();
    EXPECT_EQ(verdict.kind, VerdictKind::Timeout);
    EXPECT_EQ(verdict.failure, FailureKind::Timeout);
}

TEST(FailureTaxonomyTest, InjectedMemoryFaultClassifiesAsMemoryBudget)
{
    FaultedPipeline pipeline(
        queryHeavyIndex(),
        certainFault(&smt::FaultPlan::memoryPercent));
    Verdict verdict = pipeline.check();
    EXPECT_EQ(verdict.kind, VerdictKind::OutOfMemory);
    EXPECT_EQ(verdict.failure, FailureKind::MemoryBudget);
}

TEST(FailureTaxonomyTest, InjectedUnknownClassifiesAsSolverUnknown)
{
    FaultedPipeline pipeline(
        queryHeavyIndex(),
        certainFault(&smt::FaultPlan::unknownPercent));
    Verdict verdict = pipeline.check();
    EXPECT_EQ(verdict.kind, VerdictKind::Timeout);
    EXPECT_EQ(verdict.failure, FailureKind::SolverUnknown);
}

TEST(FailureTaxonomyTest, InjectedCrashClassifiesAsSolverCrash)
{
    FaultedPipeline pipeline(
        queryHeavyIndex(),
        certainFault(&smt::FaultPlan::crashPercent));
    Verdict verdict;
    // The unguarded crash reaches the Checker, which absorbs it into a
    // classified verdict — never an escaped exception.
    EXPECT_NO_THROW(verdict = pipeline.check());
    EXPECT_EQ(verdict.kind, VerdictKind::Timeout);
    EXPECT_EQ(verdict.failure, FailureKind::SolverCrash);
}

TEST(FailureTaxonomyTest, CancellationClassifiesAsCancelled)
{
    FaultedPipeline pipeline(queryHeavyIndex(), smt::FaultPlan{});
    CheckerConfig config;
    config.cancel = support::CancellationToken::create();
    config.cancel.cancel();
    Verdict verdict = pipeline.check(config);
    EXPECT_EQ(verdict.kind, VerdictKind::Timeout);
    EXPECT_EQ(verdict.failure, FailureKind::Cancelled);
}

TEST(FailureTaxonomyTest, NamesRoundTripForEveryKind)
{
    const FailureKind kinds[] = {
        FailureKind::None,          FailureKind::Timeout,
        FailureKind::MemoryBudget,  FailureKind::SolverUnknown,
        FailureKind::SolverCrash,   FailureKind::Cancelled,
    };
    for (FailureKind kind : kinds) {
        FailureKind back = FailureKind::Timeout;
        ASSERT_TRUE(failureKindFromName(failureKindName(kind), back));
        EXPECT_EQ(back, kind);
    }
    FailureKind out = FailureKind::None;
    EXPECT_FALSE(failureKindFromName("definitely-not-a-kind", out));
}

TEST(FailureTaxonomyTest, EveryKindSurvivesACheckpointRoundTrip)
{
    const FailureKind kinds[] = {
        FailureKind::None,          FailureKind::Timeout,
        FailureKind::MemoryBudget,  FailureKind::SolverUnknown,
        FailureKind::SolverCrash,   FailureKind::Cancelled,
    };
    for (FailureKind kind : kinds) {
        driver::FunctionReport report;
        report.function = "f_" + std::string(failureKindName(kind));
        report.outcome = driver::Outcome::Timeout;
        report.verdict.kind = VerdictKind::Timeout;
        report.verdict.failure = kind;
        report.verdict.reason = "why: " +
                                std::string(failureKindName(kind));
        driver::FunctionReport back;
        ASSERT_TRUE(driver::deserializeFunctionReport(
            driver::serializeFunctionReport(report), back));
        EXPECT_EQ(back.verdict.failure, kind);
        EXPECT_EQ(back.canonicalSummary(), report.canonicalSummary());
    }
}

} // namespace
} // namespace keq::checker
