/** @file Z3 backend tests: satisfiability, implications, arrays, stats. */

#include <gtest/gtest.h>

#include "src/smt/term_factory.h"
#include "src/smt/z3_solver.h"

namespace keq::smt {
namespace {

class SolverTest : public ::testing::Test
{
  protected:
    TermFactory tf;
    Z3Solver solver{tf};
    Term x = tf.var("x", Sort::bitVec(32));
    Term y = tf.var("y", Sort::bitVec(32));
};

TEST_F(SolverTest, SimpleSat)
{
    EXPECT_EQ(solver.checkSat({tf.mkEq(x, tf.bvConst(32, 5))}),
              SatResult::Sat);
}

TEST_F(SolverTest, TimedOutQueryLeavesTheSolverAnswering)
{
    // A 1 ms limit makes Z3 give up on a 64-bit factorization of a
    // prime. Z3 may ignore the next soft timeout in a context that just
    // timed out, so the cold solver drops that context: a second
    // timed-out query ends promptly and a later one answers.
    Term a = tf.var("a", Sort::bitVec(64));
    Term b = tf.var("b", Sort::bitVec(64));
    Term one = tf.bvConst(64, 1);
    Term limit = tf.bvConst(64, uint64_t{1} << 32);
    Term range = tf.mkAnd({tf.bvUlt(one, a), tf.bvUlt(one, b),
                           tf.bvUlt(a, limit), tf.bvUlt(b, limit)});
    Term prime =
        tf.mkEq(tf.bvMul(a, b), tf.bvConst(64, 4611686018427387847ULL));

    solver.setTimeoutMs(1);
    ASSERT_EQ(solver.checkSat({range, prime}), SatResult::Unknown);
    EXPECT_EQ(solver.lastFailureKind(), FailureKind::Timeout);
    EXPECT_EQ(solver.checkSat({range, prime}), SatResult::Unknown);

    solver.setTimeoutMs(0);
    solver.enableModelCapture(true);
    ASSERT_EQ(solver.checkSat({range, tf.mkEq(a, tf.bvConst(64, 6)),
                               tf.mkEq(tf.bvMul(a, b),
                                       tf.bvConst(64, 42))}),
              SatResult::Sat);
    Assignment model;
    ASSERT_TRUE(solver.lastModel(&model));
    EXPECT_EQ(model.bv("b").zext(), 7u);
    EXPECT_EQ(solver.checkSat({range, tf.mkEq(a, tf.bvConst(64, 6)),
                               tf.mkEq(tf.bvMul(a, b),
                                       tf.bvConst(64, 43))}),
              SatResult::Unsat);
}

TEST_F(SolverTest, SimpleUnsat)
{
    EXPECT_EQ(solver.checkSat({tf.mkEq(x, tf.bvConst(32, 5)),
                               tf.mkEq(x, tf.bvConst(32, 6))}),
              SatResult::Unsat);
}

TEST_F(SolverTest, BitvectorWraparound)
{
    // x + 1 == 0 is satisfiable (x == 0xffffffff).
    EXPECT_EQ(solver.checkSat({tf.mkEq(
                  tf.bvAdd(x, tf.bvConst(32, 1)), tf.bvConst(32, 0))}),
              SatResult::Sat);
}

TEST_F(SolverTest, ProveImplicationValid)
{
    // x == 5 implies x < 10 (unsigned).
    EXPECT_TRUE(solver.proveImplication(
        tf.mkEq(x, tf.bvConst(32, 5)),
        tf.bvUlt(x, tf.bvConst(32, 10))));
}

TEST_F(SolverTest, ProveImplicationInvalid)
{
    EXPECT_FALSE(solver.proveImplication(
        tf.bvUlt(x, tf.bvConst(32, 10)),
        tf.mkEq(x, tf.bvConst(32, 5))));
}

TEST_F(SolverTest, FoldingFastPathSkipsSolver)
{
    uint64_t before = solver.stats().queries;
    // Structurally identical hypothesis/conclusion folds to true.
    EXPECT_TRUE(solver.proveImplication(tf.bvUlt(x, y), tf.bvUlt(x, y)));
    EXPECT_EQ(solver.stats().queries, before);
}

TEST_F(SolverTest, SignedVsUnsignedComparison)
{
    // x <s 0 and x >u 100 is satisfiable (negative values are large
    // unsigned).
    EXPECT_EQ(
        solver.checkSat({tf.bvSlt(x, tf.bvConst(32, 0)),
                         tf.bvUgt(x, tf.bvConst(32, 100))}),
        SatResult::Sat);
}

TEST_F(SolverTest, ArrayEqualityExtensional)
{
    Term m1 = tf.var("m1", Sort::memArray());
    Term addr = tf.bvConst(64, 0x10);
    Term v = tf.var("v", Sort::bitVec(8));
    // store(m, a, v) == m is satisfiable (when m[a] already is v) ...
    EXPECT_EQ(solver.checkSat({tf.mkEq(tf.store(m1, addr, v), m1)}),
              SatResult::Sat);
    // ... but store(m, a, 1) == store(m, a, 2) is not.
    EXPECT_EQ(solver.checkSat({tf.mkEq(
                  tf.store(m1, addr, tf.bvConst(8, 1)),
                  tf.store(m1, addr, tf.bvConst(8, 2)))}),
              SatResult::Unsat);
}

TEST_F(SolverTest, MemoryRoundTripProvable)
{
    Term m = tf.var("m", Sort::memArray());
    Term base = tf.var("base", Sort::bitVec(64));
    Term value = tf.var("w", Sort::bitVec(32));
    Term written = tf.writeBytes(m, base, value, 4);
    Term read = tf.readBytes(written, base, 4);
    EXPECT_TRUE(solver.proveImplication(tf.trueTerm(),
                                        tf.mkEq(read, value)));
}

TEST_F(SolverTest, PathConditionEquivalenceAcrossEncodings)
{
    // The LLVM side encodes i < n directly; the x86 side via the carry
    // flag of CMP (i - n): cf == (i <u n). Prove the encodings equal.
    Term i = tf.var("i", Sort::bitVec(32));
    Term n = tf.var("n", Sort::bitVec(32));
    Term llvm_cond = tf.bvUlt(i, n);
    // Build the flag formula without the folding shortcut kicking in:
    // cf = extract borrow via comparison of subtraction.
    Term diff = tf.bvSub(i, n);
    Term x86_cond = tf.mkAnd(
        tf.mkOr(tf.bvUlt(i, n), tf.falseTerm()),
        tf.mkOr(tf.mkEq(diff, diff), tf.falseTerm()));
    EXPECT_TRUE(solver.proveImplication(llvm_cond, x86_cond));
    EXPECT_TRUE(solver.proveImplication(x86_cond, llvm_cond));
}

TEST_F(SolverTest, StatsAccumulate)
{
    SolverStats before = solver.stats();
    solver.checkSat({tf.mkEq(x, tf.bvConst(32, 1))});
    solver.checkSat({tf.mkEq(x, tf.bvConst(32, 1)),
                     tf.mkEq(x, tf.bvConst(32, 2))});
    const SolverStats &after = solver.stats();
    EXPECT_EQ(after.queries, before.queries + 2);
    EXPECT_EQ(after.sat, before.sat + 1);
    EXPECT_EQ(after.unsat, before.unsat + 1);
    EXPECT_GE(after.totalSeconds, before.totalSeconds);
}

TEST_F(SolverTest, ZextSextLowering)
{
    Term b = tf.var("b", Sort::bitVec(8));
    // sext(b) == zext(b) iff the sign bit of b is clear.
    Term hypothesis = tf.bvUlt(b, tf.bvConst(8, 0x80));
    Term conclusion = tf.mkEq(tf.sext(b, 32), tf.zext(b, 32));
    EXPECT_TRUE(solver.proveImplication(hypothesis, conclusion));
    EXPECT_FALSE(solver.proveImplication(tf.trueTerm(), conclusion));
}

TEST(SolverStatsTest, FoldNonVerdictStatsLeavesExactlyTheVerdictCounters)
{
    SolverStats delta;
    uint64_t next = 1;
    forEachCounter([&](CounterInfo, auto &field) { field = next++; },
                   delta);
    SolverStats into;
    foldNonVerdictStats(into, delta);

    size_t verdictRows = 0;
    forEachCounter(
        [&](CounterInfo info, const auto &folded, const auto &source) {
            if (info.cls == CounterClass::Verdict) {
                ++verdictRows;
                EXPECT_EQ(folded, 0u) << info.key;
            } else {
                EXPECT_EQ(folded, source) << info.key;
            }
        },
        into, delta);
    // The verdict class is exactly the logical-query counters.
    EXPECT_EQ(verdictRows, 4u);
    EXPECT_EQ(into.queries + into.sat + into.unsat + into.unknown, 0u);
}

} // namespace
} // namespace keq::smt
