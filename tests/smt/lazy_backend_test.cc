/** @file Lazily created Z3 state: every Z3 backend can be built,
 *  interrupted and destroyed without ever running a query; an interrupt
 *  that lands before the first query neither crashes nor poisons it; a
 *  watchdog interrupt racing the first query's context creation is
 *  safe; and a GuardedSolver cancelled before or during its first
 *  query still ends promptly as Cancelled. Run under the ThreadSanitizer
 *  build (`tools/run_tier1.sh tsan`) to cover the creation/interrupt
 *  race. */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/smt/guarded_solver.h"
#include "src/smt/incremental_z3_solver.h"
#include "src/smt/term_factory.h"
#include "src/smt/z3_solver.h"
#include "src/support/cancellation.h"

namespace keq::smt {
namespace {

using Clock = std::chrono::steady_clock;

struct NamedBackend
{
    std::string name;
    std::function<std::unique_ptr<Solver>(TermFactory &)> make;
};

std::vector<NamedBackend>
allZ3Backends()
{
    std::vector<NamedBackend> out;
    out.push_back({"z3", [](TermFactory &tf) {
                       return std::make_unique<Z3Solver>(tf);
                   }});
    out.push_back({"incremental", [](TermFactory &tf) {
                       return std::make_unique<IncrementalZ3Solver>(tf);
                   }});
    return out;
}

/** x < 100 && x > 10: trivially satisfiable. */
Term
easySat(TermFactory &tf)
{
    Term x = tf.var("x", Sort::bitVec(32));
    return tf.mkAnd(tf.bvUlt(x, tf.bvConst(32, 100)),
                    tf.bvUlt(tf.bvConst(32, 10), x));
}

/** A nontrivial 64-bit factorization of a prime: unsat, and far beyond
 *  what bit-blasting proves in the few milliseconds a test waits. */
Term
hardUnsat(TermFactory &tf)
{
    Term x = tf.var("x", Sort::bitVec(64));
    Term y = tf.var("y", Sort::bitVec(64));
    Term limit = tf.bvConst(64, uint64_t{1} << 32);
    Term one = tf.bvConst(64, 1);
    return tf.mkAnd({tf.mkEq(tf.bvMul(x, y),
                             tf.bvConst(64, 4611686018427387847ULL)),
                     tf.bvUlt(one, x), tf.bvUlt(one, y),
                     tf.bvUlt(x, limit), tf.bvUlt(y, limit)});
}

TEST(LazyBackendTest, ConstructInterruptDestroyWithoutAQuery)
{
    for (const NamedBackend &backend : allZ3Backends()) {
        SCOPED_TRACE(backend.name);
        TermFactory tf;
        std::unique_ptr<Solver> solver = backend.make(tf);
        solver->setTimeoutMs(1000);
        solver->interruptQuery();
        solver->interruptQuery();
        EXPECT_EQ(solver->stats().queries, 0u);
        EXPECT_EQ(solver->lastFailureKind(), FailureKind::None);
    }
}

TEST(LazyBackendTest, InterruptBeforeFirstQueryDoesNotPoisonIt)
{
    for (const NamedBackend &backend : allZ3Backends()) {
        SCOPED_TRACE(backend.name);
        TermFactory tf;
        std::unique_ptr<Solver> solver = backend.make(tf);
        solver->interruptQuery();
        EXPECT_EQ(solver->checkSat({easySat(tf)}), SatResult::Sat);
    }
}

TEST(LazyBackendTest, StaleInterruptCostsAtMostOneQuery)
{
    // An interrupt that lands after a query returned (a watchdog
    // firing as the answer arrives) stays pending in the context.
    // It may cost the next query, but never the ones after it.
    for (const NamedBackend &backend : allZ3Backends()) {
        SCOPED_TRACE(backend.name);
        TermFactory tf;
        Term x = tf.var("x", Sort::bitVec(32));
        std::unique_ptr<Solver> solver = backend.make(tf);
        ASSERT_EQ(solver->checkSat({easySat(tf)}), SatResult::Sat);
        solver->interruptQuery();
        try {
            solver->checkSat(
                {easySat(tf), tf.bvUlt(x, tf.bvConst(32, 50))});
        } catch (const SolverCrashError &) {
        }
        EXPECT_EQ(solver->checkSat({easySat(tf),
                                    tf.bvUlt(x, tf.bvConst(32, 40))}),
                  SatResult::Sat);
        EXPECT_EQ(solver->checkSat({easySat(tf),
                                    tf.bvUlt(x, tf.bvConst(32, 30))}),
                  SatResult::Sat);
    }
}

TEST(LazyBackendTest, InterruptRacingFirstQueryCreationIsSafe)
{
    // Fresh backends each round, so every first checkSat builds its
    // context while another thread hammers interruptQuery(). Any
    // answer but a wrong one is acceptable; the point is that nothing
    // crashes, deadlocks or (under TSan) races.
    for (const NamedBackend &backend : allZ3Backends()) {
        SCOPED_TRACE(backend.name);
        for (int round = 0; round < 5; ++round) {
            TermFactory tf;
            Term query = easySat(tf);
            std::unique_ptr<Solver> solver = backend.make(tf);
            std::atomic<bool> done{false};
            std::thread interrupter([&] {
                while (!done.load())
                    solver->interruptQuery();
            });
            SatResult result = SatResult::Unknown;
            try {
                result = solver->checkSat({query});
            } catch (const SolverCrashError &) {
                // An interrupt landing mid-assertion surfaces as a Z3
                // exception; unguarded, that is a crash report, which
                // the GuardedSolver ladder would absorb.
            }
            done.store(true);
            interrupter.join();
            EXPECT_NE(result, SatResult::Unsat);
        }
    }
}

TEST(LazyBackendTest, GuardedCancelBeforeFirstQueryEndsCancelled)
{
    for (const NamedBackend &backend : allZ3Backends()) {
        SCOPED_TRACE(backend.name);
        TermFactory tf;
        std::unique_ptr<Solver> primary = backend.make(tf);
        GuardedSolverOptions options;
        options.cancel = support::CancellationToken::create();
        options.cancel.cancel();
        GuardedSolver guard(tf, *primary, nullptr, options);
        Clock::time_point start = Clock::now();
        EXPECT_EQ(guard.checkSat({hardUnsat(tf)}), SatResult::Unknown);
        EXPECT_LT(Clock::now() - start, std::chrono::seconds(2));
        EXPECT_EQ(guard.lastFailureKind(), FailureKind::Cancelled);
        EXPECT_EQ(primary->stats().queries, 0u)
            << "a cancelled query must never reach the backend";
    }
}

TEST(LazyBackendTest, GuardedCancelDuringFirstQueryEndsCancelled)
{
    // The cancel fires while the first query is creating its context
    // or already solving; the watchdog's re-fired interrupts must reach
    // the context however the two interleave.
    for (const NamedBackend &backend : allZ3Backends()) {
        SCOPED_TRACE(backend.name);
        TermFactory tf;
        Term query = hardUnsat(tf);
        std::unique_ptr<Solver> primary = backend.make(tf);
        GuardedSolverOptions options;
        options.cancel = support::CancellationToken::create();
        options.retries = 3; // must not be spent retrying cancelled work
        GuardedSolver guard(tf, *primary, nullptr, options);
        std::thread canceller([&] {
            std::this_thread::sleep_for(std::chrono::milliseconds(20));
            options.cancel.cancel();
        });
        Clock::time_point start = Clock::now();
        SatResult result = guard.checkSat({query});
        canceller.join();
        EXPECT_EQ(result, SatResult::Unknown);
        EXPECT_EQ(guard.lastFailureKind(), FailureKind::Cancelled);
        EXPECT_LT(Clock::now() - start, std::chrono::seconds(5));
    }
}

} // namespace
} // namespace keq::smt
