/** @file In-process portfolio racing: lane roster parsing, verdict
 *  parity with the single-lane backend (fixed variants plus a random
 *  term-DAG property sweep), the one-logical-query stats contract, and
 *  the losing-lane guarantee — a reaped loser never surfaces as a
 *  user-visible Cancelled classification. */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/smt/portfolio_solver.h"
#include "src/smt/term_factory.h"
#include "src/smt/z3_solver.h"
#include "src/support/rng.h"

namespace keq::smt {
namespace {

TEST(PortfolioLanes, BuiltInNamesResolve)
{
    LaneConfig config;
    std::string error;

    ASSERT_TRUE(laneConfigFromName("default", config, error));
    EXPECT_TRUE(config.incremental);
    EXPECT_TRUE(config.tuning.empty());

    ASSERT_TRUE(laneConfigFromName("cold", config, error));
    EXPECT_FALSE(config.incremental);

    ASSERT_TRUE(laneConfigFromName("int2bv", config, error));
    EXPECT_TRUE(config.incremental);
    EXPECT_FALSE(config.tuning.empty());

    ASSERT_TRUE(laneConfigFromName("seed42", config, error));
    EXPECT_EQ(config.tuning.front().second, "42");

    EXPECT_FALSE(laneConfigFromName("warp", config, error));
    EXPECT_NE(error.find("warp"), std::string::npos);
    EXPECT_FALSE(laneConfigFromName("seed", config, error));
    EXPECT_FALSE(laneConfigFromName("seedX", config, error));
}

TEST(PortfolioLanes, DefaultRosterScalesAndClamps)
{
    EXPECT_EQ(defaultPortfolioLanes(1).size(), 1u);
    EXPECT_EQ(defaultPortfolioLanes(1).front().name, "default");

    std::vector<LaneConfig> two = defaultPortfolioLanes(2);
    ASSERT_EQ(two.size(), 2u);
    EXPECT_EQ(two[0].name, "default");
    EXPECT_EQ(two[1].name, "cold");

    std::vector<LaneConfig> three = defaultPortfolioLanes(3);
    ASSERT_EQ(three.size(), 3u);
    EXPECT_EQ(three[1].name, "int2bv");

    // Clamped at both ends.
    EXPECT_EQ(defaultPortfolioLanes(0).size(), 1u);
    EXPECT_EQ(defaultPortfolioLanes(99).size(),
              SolverStats::kPortfolioMaxLanes);
}

TEST(PortfolioLanes, SpecParsingAcceptsTuningAndRejectsGarbage)
{
    std::vector<LaneConfig> lanes;
    std::string error;

    ASSERT_TRUE(parsePortfolioLanes("default,int2bv,cold:random_seed=3",
                                    lanes, error))
        << error;
    ASSERT_EQ(lanes.size(), 3u);
    EXPECT_EQ(lanes[2].name, "cold");
    ASSERT_FALSE(lanes[2].tuning.empty());
    EXPECT_EQ(lanes[2].tuning.back().first, "random_seed");
    EXPECT_EQ(lanes[2].tuning.back().second, "3");

    EXPECT_FALSE(parsePortfolioLanes("", lanes, error));
    EXPECT_FALSE(parsePortfolioLanes("default,,cold", lanes, error));
    EXPECT_FALSE(parsePortfolioLanes("bogus", lanes, error));
    EXPECT_FALSE(parsePortfolioLanes("default:notkeyvalue", lanes, error));
    EXPECT_FALSE(parsePortfolioLanes("default:=x", lanes, error));
    EXPECT_FALSE(
        parsePortfolioLanes("default,cold,int2bv,seed1,seed2", lanes,
                            error))
        << "more lanes than kPortfolioMaxLanes must be rejected";
}

TEST(PortfolioSolver, VerdictsMatchTheSingleLaneBackend)
{
    for (int variant = 0; variant < 4; ++variant) {
        TermFactory single_f;
        TermFactory raced_f;
        auto build = [variant](TermFactory &f) -> std::vector<Term> {
            Sort bv32 = Sort::bitVec(32);
            Term x = f.var("x", bv32);
            Term y = f.var("y", bv32);
            switch (variant) {
              case 0: // sat: a satisfiable interval
                return {f.bvUlt(x, f.bvConst(32, 10)),
                        f.bvUgt(x, f.bvConst(32, 5))};
              case 1: // unsat: an empty interval
                return {f.bvUlt(x, f.bvConst(32, 5)),
                        f.bvUgt(x, f.bvConst(32, 10))};
              case 2: // unsat: xor commutes
                return {f.mkNot(f.mkEq(f.bvXor(x, y), f.bvXor(y, x)))};
              default: // sat: memory round-trip
              {
                Term mem = f.var("mem", Sort::memArray());
                Term addr = f.var("addr", Sort::bitVec(64));
                Term byte = f.var("byte", Sort::bitVec(8));
                return {f.mkEq(
                    f.select(f.store(mem, addr, byte), addr), byte)};
              }
            }
        };

        Z3Solver reference(single_f);
        SatResult expected = reference.checkSat(build(single_f));

        PortfolioSolver raced(raced_f, defaultPortfolioLanes(3));
        SatResult actual = raced.checkSat(build(raced_f));

        EXPECT_EQ(actual, expected) << "variant " << variant;
        EXPECT_EQ(raced.lastFailureKind(), FailureKind::None);
    }
}

/**
 * Random term-DAG property sweep: build layered bitvector/bool DAGs
 * from a seeded stream and check that the 3-lane portfolio returns the
 * exact verdict of the plain single-lane solver. The generator favors
 * shared subterms (true DAGs, not trees) so hash-consing and the lane
 * threads' concurrent DAG reads are genuinely exercised.
 */
std::vector<Term>
randomDagAssertions(TermFactory &f, support::Rng &rng)
{
    Sort bv32 = Sort::bitVec(32);
    std::vector<Term> pool;
    for (int i = 0; i < 3; ++i)
        pool.push_back(
            f.var("v" + std::to_string(i), bv32));
    pool.push_back(f.bvConst(32, rng.below(64)));
    pool.push_back(f.bvConst(32, rng.next()));

    size_t layers = 4 + rng.below(10);
    for (size_t i = 0; i < layers; ++i) {
        Term a = pool[rng.below(pool.size())];
        Term b = pool[rng.below(pool.size())];
        switch (rng.below(6)) {
        case 0: pool.push_back(f.bvAdd(a, b)); break;
        case 1: pool.push_back(f.bvMul(a, b)); break;
        case 2: pool.push_back(f.bvXor(a, b)); break;
        case 3: pool.push_back(f.bvAnd(a, b)); break;
        case 4: pool.push_back(f.bvSub(a, b)); break;
        default: pool.push_back(f.bvOr(a, b)); break;
        }
    }

    std::vector<Term> assertions;
    size_t count = 1 + rng.below(4);
    for (size_t i = 0; i < count; ++i) {
        Term a = pool[rng.below(pool.size())];
        Term b = pool[rng.below(pool.size())];
        switch (rng.below(3)) {
        case 0: assertions.push_back(f.mkEq(a, b)); break;
        case 1: assertions.push_back(f.bvUlt(a, b)); break;
        default:
            assertions.push_back(f.mkNot(f.mkEq(a, b)));
            break;
        }
    }
    return assertions;
}

TEST(PortfolioSolver, RandomDagParityWithSingleLane)
{
    TermFactory single_f;
    TermFactory raced_f;
    Z3Solver reference(single_f);
    reference.setTimeoutMs(5000);
    PortfolioSolver raced(raced_f, defaultPortfolioLanes(3));
    raced.setTimeoutMs(5000);

    int definite = 0;
    for (uint64_t round = 0; round < 40; ++round) {
        support::Rng rng_a = support::Rng::stream(0x90f0110, round);
        support::Rng rng_b = support::Rng::stream(0x90f0110, round);
        SatResult expected =
            reference.checkSat(randomDagAssertions(single_f, rng_a));
        SatResult actual =
            raced.checkSat(randomDagAssertions(raced_f, rng_b));
        if (expected == SatResult::Unknown)
            continue; // honest timeout: no parity claim
        ++definite;
        EXPECT_EQ(actual, expected) << "round " << round;
    }
    EXPECT_GT(definite, 20) << "sweep decided too few queries to mean "
                               "anything";
    EXPECT_EQ(raced.stats().crossLaneDisagreements, 0u);
}

TEST(PortfolioSolver, OneCheckSatIsOneLogicalQuery)
{
    TermFactory f;
    PortfolioSolver solver(f, defaultPortfolioLanes(3));
    Term x = f.var("x", Sort::bitVec(16));
    solver.checkSat({f.bvUlt(x, f.bvConst(16, 3))});
    solver.checkSat({f.bvUlt(x, f.bvConst(16, 3)),
                     f.bvUgt(x, f.bvConst(16, 7))});

    const SolverStats &stats = solver.stats();
    EXPECT_EQ(stats.queries, 2u);
    EXPECT_EQ(stats.sat, 1u);
    EXPECT_EQ(stats.unsat, 1u);
    EXPECT_EQ(stats.unknown, 0u);
    uint64_t wins = 0;
    for (uint64_t lane_wins : stats.portfolioWins)
        wins += lane_wins;
    EXPECT_EQ(wins, 2u) << "every definite race has exactly one winner";
}

/**
 * The losing-lane regression (the Figure 6 taxonomy guarantee): racing
 * a query that takes real solver work means the slower lanes are
 * interrupted once the winner answers — and none of that reaping may
 * leak into the user-visible result, the unknown counter, or the
 * failure classification.
 */
TEST(PortfolioSolver, ReapedLosersNeverSurfaceAsCancelled)
{
    TermFactory f;
    // seed lanes decorrelate wall time on the same engine, so the race
    // has genuine losers; int2bv moves the multiplication to a
    // different theory engine entirely.
    std::vector<LaneConfig> lanes;
    std::string error;
    ASSERT_TRUE(parsePortfolioLanes("default,int2bv,seed11", lanes,
                                    error))
        << error;
    PortfolioSolver solver(f, std::move(lanes));

    // A 24-bit semiprime factoring instance: enough work that lanes
    // finish at measurably different times, small enough to stay sat
    // and fast in absolute terms (factors 3851 * 2999 = 11549149).
    Sort bv32 = Sort::bitVec(32);
    Term x = f.var("fx", bv32);
    Term y = f.var("fy", bv32);
    Term one = f.bvConst(32, 1);
    Term cap = f.bvConst(32, 1 << 16);
    std::vector<Term> assertions = {
        f.mkEq(f.bvMul(x, y), f.bvConst(32, 11549149)),
        f.bvUgt(x, one), f.bvUgt(y, one),
        f.bvUlt(x, cap), f.bvUlt(y, cap),
    };

    SatResult result = solver.checkSat(assertions);
    ASSERT_EQ(result, SatResult::Sat);

    const SolverStats &stats = solver.stats();
    EXPECT_EQ(solver.lastFailureKind(), FailureKind::None)
        << "a reaped loser must never be classified Cancelled";
    EXPECT_EQ(stats.queries, 1u);
    EXPECT_EQ(stats.sat, 1u);
    EXPECT_EQ(stats.unknown, 0u)
        << "losers' interrupt-induced Unknowns must not be counted";
    uint64_t wins = 0;
    for (uint64_t lane_wins : stats.portfolioWins)
        wins += lane_wins;
    EXPECT_EQ(wins, 1u);
    // Cancellations are the losers actually reaped mid-solve; the count
    // is timing-dependent but can never exceed lanes-1 per query.
    EXPECT_LE(stats.portfolioCancellations, 2u);
}

TEST(PortfolioSolver, ModelCaptureComesFromTheWinningLane)
{
    TermFactory f;
    PortfolioSolver solver(f, defaultPortfolioLanes(2));
    solver.enableModelCapture(true);

    Term x = f.var("x", Sort::bitVec(8));
    ASSERT_EQ(solver.checkSat({f.mkEq(x, f.bvConst(8, 42))}),
              SatResult::Sat);
    Assignment model;
    ASSERT_TRUE(solver.lastModel(&model));
    // Unsat leaves no stale model behind.
    ASSERT_EQ(solver.checkSat({f.mkEq(x, f.bvConst(8, 1)),
                               f.mkEq(x, f.bvConst(8, 2))}),
              SatResult::Unsat);
    EXPECT_FALSE(solver.lastModel(&model));
}

TEST(PortfolioSolver, LaneIntrospectionNamesTheRoster)
{
    TermFactory f;
    PortfolioSolver solver(f, defaultPortfolioLanes(3));
    ASSERT_EQ(solver.laneCount(), 3u);
    EXPECT_EQ(solver.laneName(0), "default");
    EXPECT_EQ(solver.laneName(1), "int2bv");
    EXPECT_EQ(solver.laneName(2), "cold");
}

TEST(LanesDisagree, RechecksOnlyAContradictionWithAnInterruptedAnswer)
{
    int rechecks = 0;
    auto recheck = [&] {
        ++rechecks;
        return SatResult::Unsat;
    };
    std::vector<LaneAnswer> agree = {{SatResult::Unsat, false},
                                     {SatResult::Unsat, true},
                                     {SatResult::Unknown, true}};
    EXPECT_FALSE(lanesDisagree(agree, recheck));
    std::vector<LaneAnswer> uninterrupted = {{SatResult::Unsat, false},
                                             {SatResult::Sat, false}};
    EXPECT_TRUE(lanesDisagree(uninterrupted, recheck));
    EXPECT_EQ(rechecks, 0);
}

TEST(LanesDisagree, RecheckDropsOnlyTheInterruptedAnswersItContradicts)
{
    std::vector<LaneAnswer> answers = {{SatResult::Unsat, false},
                                       {SatResult::Sat, true},
                                       {SatResult::Unsat, true}};
    EXPECT_FALSE(
        lanesDisagree(answers, [] { return SatResult::Unsat; }));
    EXPECT_EQ(answers[0].result, SatResult::Unsat);
    EXPECT_EQ(answers[1].result, SatResult::Unknown);
    EXPECT_EQ(answers[2].result, SatResult::Unsat);
}

TEST(LanesDisagree, AFailedOrConfirmingRecheckLeavesTheContradiction)
{
    // Unknown stands for a re-check that crashed, timed out or was
    // stopped; the winner's answer is never re-checked or dropped.
    for (SatResult truth : {SatResult::Unknown, SatResult::Sat}) {
        std::vector<LaneAnswer> answers = {{SatResult::Unsat, false},
                                           {SatResult::Sat, true}};
        EXPECT_TRUE(lanesDisagree(answers, [&] { return truth; }));
        EXPECT_EQ(answers[0].result, SatResult::Unsat);
        EXPECT_EQ(answers[1].result, SatResult::Sat);
    }
}

} // namespace
} // namespace keq::smt
