/** @file IncrementalZ3Solver tests: verdict identity with the cold-start
 *  Z3Solver on interleaved query sequences, prefix-reuse accounting, and
 *  guard-free model capture. */

#include <gtest/gtest.h>

#include <vector>

#include "src/smt/evaluator.h"
#include "src/smt/incremental_z3_solver.h"
#include "src/smt/term_factory.h"
#include "src/smt/z3_solver.h"
#include "src/support/rng.h"

namespace keq::smt {
namespace {

using support::ApInt;
using support::Rng;

Term
var32(TermFactory &tf, const char *name)
{
    return tf.var(name, Sort::bitVec(32));
}

TEST(IncrementalZ3Test, PrefixReuseAcrossGrowingQueries)
{
    TermFactory tf;
    IncrementalZ3Solver solver(tf);
    Term x = var32(tf, "x");
    Term y = var32(tf, "y");

    Term p1 = tf.bvUlt(x, tf.bvConst(32, 100));
    Term p2 = tf.bvUlt(tf.bvConst(32, 10), x);
    Term p3 = tf.mkEq(y, tf.bvAdd(x, tf.bvConst(32, 1)));

    // Growing chain: each query extends the previous one, so after the
    // cold first check every solve reuses the full prior prefix.
    EXPECT_EQ(solver.checkSat({p1}), SatResult::Sat);
    EXPECT_EQ(solver.checkSat({p1, p2}), SatResult::Sat);
    EXPECT_EQ(solver.checkSat({p1, p2, p3}), SatResult::Sat);
    // Contradictory tail on the same prefix.
    EXPECT_EQ(solver.checkSat(
                  {p1, p2, tf.bvUlt(x, tf.bvConst(32, 5))}),
              SatResult::Unsat);

    const SolverStats &stats = solver.stats();
    EXPECT_EQ(stats.queries, 4u);
    EXPECT_EQ(stats.sat, 3u);
    EXPECT_EQ(stats.unsat, 1u);
    EXPECT_EQ(stats.coldSolves, 1u);
    EXPECT_EQ(stats.incrementalSolves, 3u);
    // Reused assertions: 1 (query 2) + 2 (query 3) + 2 (query 4).
    EXPECT_EQ(stats.incrementalReused, 5u);
}

TEST(IncrementalZ3Test, DivergentPrefixTriggersColdSolve)
{
    TermFactory tf;
    IncrementalZ3Solver solver(tf);
    Term x = var32(tf, "x");

    Term a = tf.bvUlt(x, tf.bvConst(32, 100));
    Term b = tf.bvUlt(tf.bvConst(32, 50), x);
    EXPECT_EQ(solver.checkSat({a, b}), SatResult::Sat);
    // First assertion differs: no common prefix, full rebuild.
    EXPECT_EQ(solver.checkSat({b, a}), SatResult::Sat);
    EXPECT_EQ(solver.stats().coldSolves, 2u);
    EXPECT_EQ(solver.stats().incrementalReused, 0u);

    // Back to a query sharing the second stream's prefix: warm again.
    EXPECT_EQ(solver.checkSat({b}), SatResult::Sat);
    EXPECT_EQ(solver.stats().incrementalSolves, 1u);
    EXPECT_EQ(solver.stats().incrementalReused, 1u);
}

TEST(IncrementalZ3Test, ModelCaptureSkipsGuardLiterals)
{
    TermFactory tf;
    IncrementalZ3Solver solver(tf);
    solver.enableModelCapture(true);
    Term x = var32(tf, "x");
    Term p = tf.var("p", Sort::boolSort());

    std::vector<Term> query = {
        tf.mkEq(tf.bvAnd(x, tf.bvConst(32, 0xff)), tf.bvConst(32, 0x2a)),
        p};
    ASSERT_EQ(solver.checkSat(query), SatResult::Sat);

    Assignment model;
    ASSERT_TRUE(solver.lastModel(&model));
    // The internal assumption literals must never leak into models.
    EXPECT_FALSE(model.hasBool("keq!guard!0"));
    EXPECT_FALSE(model.hasBool("keq!guard!1"));
    // The captured model actually satisfies the query.
    Evaluator eval(model);
    for (Term assertion : query)
        EXPECT_TRUE(eval.evalBool(assertion));

    // Unsat queries leave no model behind.
    EXPECT_EQ(solver.checkSat({tf.mkEq(x, tf.bvConst(32, 1)),
                               tf.mkEq(x, tf.bvConst(32, 2))}),
              SatResult::Unsat);
    EXPECT_FALSE(solver.lastModel(&model));
}

TEST(IncrementalZ3Test, UnknownFallbackKeepsReusingPrefixes)
{
    // A 1 ms limit makes Z3 give up on a hard query (a 64-bit
    // factorization of a prime). The guardrail retries it on a fresh
    // solver from the core's one constructor; that solver becomes the
    // persistent one, so the next queries still answer and still reuse
    // their prefix.
    TermFactory tf;
    IncrementalZ3Solver solver(tf);
    Term x = tf.var("x", Sort::bitVec(64));
    Term y = tf.var("y", Sort::bitVec(64));
    Term one = tf.bvConst(64, 1);
    Term limit = tf.bvConst(64, uint64_t{1} << 32);
    Term range = tf.mkAnd({tf.bvUlt(one, x), tf.bvUlt(one, y),
                           tf.bvUlt(x, limit), tf.bvUlt(y, limit)});
    Term prime = tf.mkEq(tf.bvMul(x, y),
                         tf.bvConst(64, 4611686018427387847ULL));

    solver.setTimeoutMs(1);
    ASSERT_EQ(solver.checkSat({range, prime}), SatResult::Unknown);
    EXPECT_EQ(solver.lastFailureKind(), FailureKind::Timeout);
    EXPECT_EQ(solver.stats().incrementalFallbacks, 1u);

    solver.setTimeoutMs(0);
    uint64_t solves = solver.stats().incrementalSolves;
    Term x_is_7 = tf.mkEq(x, tf.bvConst(64, 7));
    EXPECT_EQ(solver.checkSat({range, x_is_7}), SatResult::Sat);
    EXPECT_EQ(solver.stats().incrementalSolves, solves + 1);
    EXPECT_EQ(solver.checkSat(
                  {range, x_is_7, tf.mkEq(y, tf.bvConst(64, 3))}),
              SatResult::Sat);
    EXPECT_EQ(solver.stats().incrementalSolves, solves + 2);
    EXPECT_EQ(solver.stats().incrementalFallbacks, 1u);
}

/**
 * Differential sweep: an IncrementalZ3Solver fed an arbitrary interleaved
 * sequence of queries must return exactly what a cold Z3Solver returns
 * for each query in isolation. Sequences are built to exercise prefix
 * extension, truncation, and divergence in random order.
 */
class IncrementalIdentityProperty
    : public ::testing::TestWithParam<uint64_t>
{};

TEST_P(IncrementalIdentityProperty, VerdictsMatchColdSolver)
{
    Rng rng(GetParam() * 0xBF58476D1CE4E5B9ull + 11);
    TermFactory tf;
    IncrementalZ3Solver incremental(tf);
    Z3Solver cold(tf);

    std::vector<Term> vars = {var32(tf, "a"), var32(tf, "b"),
                              var32(tf, "c")};
    // A small atom pool makes shared prefixes common.
    std::vector<Term> atoms;
    for (Term v : vars) {
        atoms.push_back(tf.bvUlt(v, tf.bvConst(32, 8)));
        atoms.push_back(tf.bvUlt(tf.bvConst(32, 3), v));
        atoms.push_back(tf.mkEq(v, tf.bvConst(32, 5)));
        atoms.push_back(
            tf.mkEq(tf.bvAnd(v, tf.bvConst(32, 1)), tf.bvConst(32, 0)));
    }

    std::vector<Term> current;
    for (int round = 0; round < 40; ++round) {
        // Mutate the running query: extend, truncate, or replace the
        // tail — the shapes the checker's obligation stream produces.
        switch (rng.below(4)) {
          case 0:
            current.push_back(atoms[rng.below(atoms.size())]);
            break;
          case 1:
            if (!current.empty())
                current.pop_back();
            current.push_back(atoms[rng.below(atoms.size())]);
            break;
          case 2:
            if (current.size() > 1)
                current.resize(1 + rng.below(current.size() - 1));
            break;
          default:
            current.assign({atoms[rng.below(atoms.size())],
                            atoms[rng.below(atoms.size())]});
            break;
        }
        SatResult expected = cold.checkSat(current);
        EXPECT_EQ(incremental.checkSat(current), expected)
            << "round " << round;
    }

    const SolverStats &stats = incremental.stats();
    EXPECT_EQ(stats.queries, 40u);
    EXPECT_EQ(stats.sat + stats.unsat + stats.unknown, stats.queries);
    EXPECT_EQ(stats.incrementalSolves + stats.coldSolves, stats.queries);
    EXPECT_GT(stats.incrementalReused, 0u)
        << "shared prefixes must be reused";
}

INSTANTIATE_TEST_SUITE_P(Seeds, IncrementalIdentityProperty,
                         ::testing::Range(uint64_t{0}, uint64_t{8}));

} // namespace
} // namespace keq::smt
