/** @file GuardedSolver: retries recover transient Unknowns, the guard
 *  escalates to its fallback rung, crashes are absorbed into classified
 *  failures, the watchdog enforces deadlines and cancellation, and the
 *  stats contract counts each logical query exactly once. */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "src/smt/guarded_solver.h"
#include "src/smt/term_factory.h"
#include "src/support/cancellation.h"

namespace keq::smt {
namespace {

/** Deterministic fake backend driven by a per-call script; the last
 *  step repeats forever. */
class ScriptedSolver : public Solver
{
  public:
    enum class Step
    {
        Sat,
        Unsat,
        Unknown,
        Crash,
        MemoryCrash,
        Hang, ///< blocks until interruptQuery() (5 s safety cap)
        LateSat, ///< ignores interrupts; answers Sat after 200 ms
    };

    ScriptedSolver(TermFactory &tf, std::vector<Step> script)
        : tf_(tf), script_(std::move(script))
    {}

    SatResult
    checkSat(const std::vector<Term> &) override
    {
        ++stats_.queries;
        Step step = script_.empty()
                        ? Step::Sat
                        : script_[std::min(calls_, script_.size() - 1)];
        ++calls_;
        switch (step) {
        case Step::Sat:
            ++stats_.sat;
            return SatResult::Sat;
        case Step::Unsat:
            ++stats_.unsat;
            return SatResult::Unsat;
        case Step::Unknown:
            ++stats_.unknown;
            lastReason_ = "scripted incompleteness";
            return SatResult::Unknown;
        case Step::Crash:
            throw SolverCrashError("scripted crash");
        case Step::MemoryCrash:
            throw SolverCrashError("scripted memory blowup");
        case Step::Hang: {
            auto start = std::chrono::steady_clock::now();
            while (!interrupted_.load() &&
                   std::chrono::steady_clock::now() - start <
                       std::chrono::seconds(5)) {
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(1));
            }
            interrupted_.store(false);
            ++stats_.unknown;
            lastReason_ = "canceled";
            return SatResult::Unknown;
        }
        case Step::LateSat:
            std::this_thread::sleep_for(std::chrono::milliseconds(200));
            ++stats_.sat;
            return SatResult::Sat;
        }
        ++stats_.unknown;
        return SatResult::Unknown;
    }

    void setTimeoutMs(unsigned) override {}
    void interruptQuery() override { interrupted_.store(true); }
    std::string lastUnknownReason() const override { return lastReason_; }
    const SolverStats &stats() const override { return stats_; }
    size_t calls() const { return calls_; }

  protected:
    TermFactory &factory() override { return tf_; }

  private:
    TermFactory &tf_;
    std::vector<Step> script_;
    size_t calls_ = 0;
    SolverStats stats_;
    std::string lastReason_;
    std::atomic<bool> interrupted_{false};
};

using Step = ScriptedSolver::Step;

GuardedSolver::RungFactory
rungOf(TermFactory &tf, std::vector<Step> script)
{
    return [&tf, script] {
        return std::make_unique<ScriptedSolver>(tf, script);
    };
}

TEST(GuardedSolverTest, HealthyPrimaryPassesStraightThrough)
{
    TermFactory tf;
    ScriptedSolver primary(tf, {Step::Sat, Step::Unsat});
    GuardedSolver guard(tf, primary, nullptr, {});

    EXPECT_EQ(guard.checkSat({}), SatResult::Sat);
    EXPECT_EQ(guard.checkSat({}), SatResult::Unsat);
    EXPECT_EQ(guard.stats().queries, 2u);
    EXPECT_EQ(guard.stats().sat, 1u);
    EXPECT_EQ(guard.stats().unsat, 1u);
    EXPECT_EQ(guard.stats().guardedRetries, 0u);
    EXPECT_EQ(guard.stats().guardedEscalations, 0u);
}

TEST(GuardedSolverTest, TransientUnknownIsRetriedOnTheSameRung)
{
    TermFactory tf;
    ScriptedSolver primary(tf, {Step::Unknown, Step::Sat});
    GuardedSolverOptions options;
    options.retries = 1;
    GuardedSolver guard(tf, primary, nullptr, options);

    EXPECT_EQ(guard.checkSat({}), SatResult::Sat);
    EXPECT_EQ(primary.calls(), 2u);
    // Stats contract: one logical query, one Sat — the retry shows up
    // only in its dedicated counter.
    EXPECT_EQ(guard.stats().queries, 1u);
    EXPECT_EQ(guard.stats().sat, 1u);
    EXPECT_EQ(guard.stats().unknown, 0u);
    EXPECT_EQ(guard.stats().guardedRetries, 1u);
    // The rescued answer reports no failure: a sandbox parent would
    // otherwise discard it as non-definite.
    EXPECT_EQ(guard.lastFailureKind(), FailureKind::None);
    EXPECT_EQ(guard.lastUnknownReason(), "");
}

TEST(GuardedSolverTest, EscalationResolvesOnAFreshRung)
{
    TermFactory tf;
    ScriptedSolver primary(tf, {Step::Unknown}); // wedged forever
    GuardedSolverOptions options;
    options.retries = 0;
    GuardedSolver guard(tf, primary, rungOf(tf, {Step::Unsat}),
                        options);

    EXPECT_EQ(guard.checkSat({}), SatResult::Unsat);
    EXPECT_EQ(guard.stats().queries, 1u);
    EXPECT_EQ(guard.stats().unsat, 1u);
    EXPECT_EQ(guard.stats().guardedEscalations, 1u);
    EXPECT_EQ(guard.stats().escalatedResolved, 1u);
    EXPECT_EQ(guard.lastFailureKind(), FailureKind::None);
}

TEST(GuardedSolverTest, ExhaustedLadderReportsAClassifiedUnknown)
{
    TermFactory tf;
    ScriptedSolver primary(tf, {Step::Unknown});
    GuardedSolverOptions options;
    options.retries = 1;
    GuardedSolver guard(tf, primary, nullptr, options);

    EXPECT_EQ(guard.checkSat({}), SatResult::Unknown);
    EXPECT_EQ(guard.lastFailureKind(), FailureKind::SolverUnknown);
    EXPECT_EQ(guard.stats().unknown, 1u) << "counted once, not per try";
    EXPECT_EQ(guard.stats().queries, 1u);
    EXPECT_EQ(guard.stats().guardedRetries, 1u);
}

TEST(GuardedSolverTest, CrashesAreAbsorbedAndClassified)
{
    TermFactory tf;
    ScriptedSolver primary(tf, {Step::Crash});
    GuardedSolverOptions options;
    options.retries = 1;
    GuardedSolver guard(tf, primary, nullptr, options);

    SatResult result = SatResult::Sat;
    EXPECT_NO_THROW(result = guard.checkSat({}));
    EXPECT_EQ(result, SatResult::Unknown);
    EXPECT_EQ(guard.lastFailureKind(), FailureKind::SolverCrash);
    EXPECT_EQ(guard.stats().solverCrashes, 2u) << "both attempts crashed";
    EXPECT_EQ(guard.stats().unknown, 1u);
}

TEST(GuardedSolverTest, MemoryCrashesClassifyAsMemoryBudget)
{
    TermFactory tf;
    ScriptedSolver primary(tf, {Step::MemoryCrash});
    GuardedSolverOptions options;
    options.retries = 0;
    GuardedSolver guard(tf, primary, nullptr, options);

    EXPECT_EQ(guard.checkSat({}), SatResult::Unknown);
    EXPECT_EQ(guard.lastFailureKind(), FailureKind::MemoryBudget);
}

TEST(GuardedSolverTest, WatchdogEnforcesTheDeadlineAndEscalates)
{
    TermFactory tf;
    ScriptedSolver primary(tf, {Step::Hang});
    GuardedSolverOptions options;
    options.deadlineMs = 50;
    options.retries = 0;
    GuardedSolver guard(tf, primary, rungOf(tf, {Step::Sat}),
                        options);

    auto start = std::chrono::steady_clock::now();
    EXPECT_EQ(guard.checkSat({}), SatResult::Sat)
        << "a hung rung 0 must not cost the verdict";
    auto elapsed = std::chrono::steady_clock::now() - start;
    EXPECT_LT(elapsed, std::chrono::seconds(4))
        << "the watchdog, not the hang cap, must break the hang";
    EXPECT_GE(guard.stats().watchdogInterrupts, 1u);
    EXPECT_EQ(guard.stats().escalatedResolved, 1u);
}

TEST(GuardedSolverTest, DeadlineWithoutFallbackClassifiesAsTimeout)
{
    TermFactory tf;
    ScriptedSolver primary(tf, {Step::Hang});
    GuardedSolverOptions options;
    options.deadlineMs = 50;
    options.retries = 0;
    GuardedSolver guard(tf, primary, nullptr, options);

    EXPECT_EQ(guard.checkSat({}), SatResult::Unknown);
    EXPECT_EQ(guard.lastFailureKind(), FailureKind::Timeout);
    EXPECT_GE(guard.stats().watchdogInterrupts, 1u);
}

TEST(GuardedSolverTest, AnswerPastTheDeadlineFailsTheAttempt)
{
    // The backend ignores the interrupt and answers after its deadline:
    // that answer is not trusted, so the ladder escalates.
    TermFactory tf;
    ScriptedSolver primary(tf, {Step::LateSat});
    GuardedSolverOptions options;
    options.deadlineMs = 50;
    options.retries = 1;
    GuardedSolver guard(tf, primary, rungOf(tf, {Step::Unsat}),
                        options);

    EXPECT_EQ(guard.checkSat({}), SatResult::Unsat);
    EXPECT_EQ(primary.calls(), 2u) << "retried on the same rung first";
    EXPECT_EQ(guard.stats().guardedRetries, 1u);
    EXPECT_EQ(guard.stats().escalatedResolved, 1u);
    EXPECT_GE(guard.stats().watchdogInterrupts, 2u);
    EXPECT_EQ(guard.stats().sat, 0u);
    EXPECT_EQ(guard.lastFailureKind(), FailureKind::None);
}

TEST(GuardedSolverTest, AnswerPastTheDeadlineWithoutFallbackIsUnknown)
{
    TermFactory tf;
    ScriptedSolver primary(tf, {Step::LateSat});
    GuardedSolverOptions options;
    options.deadlineMs = 50;
    options.retries = 0;
    GuardedSolver guard(tf, primary, nullptr, options);

    EXPECT_EQ(guard.checkSat({}), SatResult::Unknown);
    EXPECT_EQ(guard.lastFailureKind(), FailureKind::Timeout);
    EXPECT_EQ(guard.stats().unknown, 1u);
    EXPECT_EQ(guard.stats().sat, 0u);
}

TEST(GuardedSolverTest, AnswerAfterACancelIsCancelled)
{
    // A cancelled query's late answer must not escape as a verdict.
    TermFactory tf;
    ScriptedSolver primary(tf, {Step::LateSat});
    GuardedSolverOptions options;
    options.cancel = support::CancellationToken::create();
    options.retries = 3;
    GuardedSolver guard(tf, primary, rungOf(tf, {Step::Sat}),
                        options);

    std::thread canceller([&] {
        std::this_thread::sleep_for(std::chrono::milliseconds(30));
        options.cancel.cancel();
    });
    SatResult result = guard.checkSat({});
    canceller.join();

    EXPECT_EQ(result, SatResult::Unknown);
    EXPECT_EQ(guard.lastFailureKind(), FailureKind::Cancelled);
    EXPECT_EQ(primary.calls(), 1u) << "cancelled work is not retried";
}

TEST(GuardedSolverTest, PreCancelledTokenShortCircuits)
{
    TermFactory tf;
    ScriptedSolver primary(tf, {Step::Sat});
    GuardedSolverOptions options;
    options.cancel = support::CancellationToken::create();
    options.cancel.cancel();
    GuardedSolver guard(tf, primary, nullptr, options);

    EXPECT_EQ(guard.checkSat({}), SatResult::Unknown);
    EXPECT_EQ(guard.lastFailureKind(), FailureKind::Cancelled);
    EXPECT_EQ(primary.calls(), 0u) << "no solving after cancellation";
}

TEST(GuardedSolverTest, MidQueryCancellationInterruptsTheBackend)
{
    TermFactory tf;
    ScriptedSolver primary(tf, {Step::Hang});
    GuardedSolverOptions options;
    options.cancel = support::CancellationToken::create();
    options.retries = 3; // must not be consumed retrying cancelled work
    GuardedSolver guard(tf, primary, rungOf(tf, {Step::Sat}),
                        options);

    std::thread canceller([&] {
        std::this_thread::sleep_for(std::chrono::milliseconds(30));
        options.cancel.cancel();
    });
    SatResult result = guard.checkSat({});
    canceller.join();

    EXPECT_EQ(result, SatResult::Unknown);
    EXPECT_EQ(guard.lastFailureKind(), FailureKind::Cancelled);
    EXPECT_EQ(primary.calls(), 1u) << "cancelled work is not retried";
}

/**
 * Models the nastiest interleaving: SIGINT lands in the same instant
 * the watchdog deadline fires. The hang only breaks when interrupted,
 * and the interruption itself cancels the run token — so by the time
 * the guard classifies the Unknown, both "deadline fired" and
 * "cancelled" are true simultaneously.
 */
class CancelOnInterruptSolver : public Solver
{
  public:
    CancelOnInterruptSolver(TermFactory &tf,
                            support::CancellationToken cancel)
        : tf_(tf), cancel_(std::move(cancel))
    {}

    SatResult
    checkSat(const std::vector<Term> &) override
    {
        ++stats_.queries;
        ++calls_;
        auto start = std::chrono::steady_clock::now();
        while (!interrupted_.load() &&
               std::chrono::steady_clock::now() - start <
                   std::chrono::seconds(5)) {
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        interrupted_.store(false);
        ++stats_.unknown;
        return SatResult::Unknown;
    }

    void setTimeoutMs(unsigned) override {}

    void
    interruptQuery() override
    {
        cancel_.cancel();
        interrupted_.store(true);
    }

    std::string lastUnknownReason() const override { return "canceled"; }
    const SolverStats &stats() const override { return stats_; }
    size_t calls() const { return calls_; }

  protected:
    TermFactory &factory() override { return tf_; }

  private:
    TermFactory &tf_;
    support::CancellationToken cancel_;
    std::atomic<bool> interrupted_{false};
    size_t calls_ = 0;
    SolverStats stats_;
};

TEST(GuardedSolverTest, CancellationRacingTheDeadlineClassifiesCancelled)
{
    TermFactory tf;
    GuardedSolverOptions options;
    options.deadlineMs = 40;
    options.retries = 3;
    options.cancel = support::CancellationToken::create();
    CancelOnInterruptSolver primary(tf, options.cancel);
    // A fallback rung that would happily answer — escalating cancelled
    // work would be as wrong as retrying it.
    GuardedSolver guard(tf, primary, rungOf(tf, {Step::Sat}),
                        options);

    EXPECT_EQ(guard.checkSat({}), SatResult::Unknown);
    EXPECT_EQ(guard.lastFailureKind(), FailureKind::Cancelled)
        << "cancellation must beat the simultaneous deadline";
    EXPECT_EQ(primary.calls(), 1u) << "no retry of cancelled work";
    EXPECT_EQ(guard.stats().guardedEscalations, 0u)
        << "no escalation of cancelled work";
}

} // namespace
} // namespace keq::smt
