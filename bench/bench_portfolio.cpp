/**
 * @file
 * Experiment E14 — solver portfolio racing + batched discharge.
 *
 * Part 1 (query-level racing): a deterministic family of hard
 * bitvector queries, each solved three times — by the single default
 * lane, by a 2-lane portfolio, and by a 3-lane portfolio. The harness
 * *asserts* verdict identity across all configurations (racing must
 * shift timings, never answers), then reports wall-clock totals, the
 * geomean speedup over the hard subset (queries the single lane needs
 * >100 ms for; KEQ_PORTFOLIO_HARD_MS overrides), and the per-lane win
 * histogram showing that no single strategy dominates.
 *
 * Roster choice: the raced lanes default to seed-decorrelated specs
 * ("default,seed7" and "default,seed7,seed11"; override with
 * KEQ_PORTFOLIO_LANES_2 / KEQ_PORTFOLIO_LANES_3). On this bench's
 * nonlinear search instances, random-seed decorrelation is the
 * diversity axis with measured heavy-tailed payoff, so the race wins
 * even on a single-core host where N lanes timeshare one CPU and the
 * portfolio must recover more than the N× slice penalty. The hard
 * family below is curated for exactly that sensitivity: semiprime
 * factoring instances where per-seed solve times spread by 10-40x,
 * mixed with instances where the default lane is already the best so
 * the race's serialization cost is visible too, not hidden.
 *
 * Part 2 (batched discharge): every checked-in conformance corpus
 * file through the full pipeline with batched discharge off and on,
 * verdict identity asserted per file, wall-clock and batch counters
 * reported.
 *
 * Results land in BENCH_portfolio.json.
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "src/conformance/corpus.h"
#include "src/driver/pipeline.h"
#include "src/llvmir/parser.h"
#include "src/llvmir/verifier.h"
#include "src/smt/solver_stack.h"
#include "src/smt/term_factory.h"
#include "src/support/stopwatch.h"

namespace {

using namespace keq;

/** One benchmark query: a name, its assertions, the expected verdict. */
struct BenchQuery
{
    std::string name;
    std::vector<smt::Term> assertions;
    smt::SatResult expected;
};

/**
 * The mixed hard-query family. Three deliberately different shapes so
 * the lanes' strengths decorrelate:
 *
 *  - factor/<w>: find a nontrivial factorization of a semiprime at
 *    width w — nonlinear, search-heavy, and heavy-tailed across
 *    solver random seeds (the case portfolios exist for). The
 *    instances are fixed, curated for strategy sensitivity: on most
 *    of them some raced lane beats the default lane by a large
 *    factor, on some the default lane is fastest and the race can
 *    only lose time;
 *  - factor-prime/<w>: the same shape around a verified prime, so the
 *    instance is Unsat and the solver must exhaust the space (cheap
 *    at these widths — these pin verdict identity on the Unsat side);
 *  - mulchain/<w>: linear multiply-accumulate equalities with tight
 *    range bounds, one Sat and one parity-Unsat.
 */
std::vector<BenchQuery>
hardQueryFamily(smt::TermFactory &tf)
{
    std::vector<BenchQuery> queries;

    auto factor = [&tf](const std::string &name, unsigned width,
                        uint64_t product, smt::SatResult expected) {
        smt::Term x = tf.var("x_" + name, smt::Sort::bitVec(width));
        smt::Term y = tf.var("y_" + name, smt::Sort::bitVec(width));
        smt::Term one = tf.bvConst(width, 1);
        // Caps keep x*y < 2^width, so Sat/Unsat matches the integers
        // (no wraparound solutions).
        uint64_t cap = uint64_t{1} << (width / 2);
        std::vector<smt::Term> assertions = {
            tf.mkEq(tf.bvMul(x, y), tf.bvConst(width, product)),
            tf.bvUlt(one, x),
            tf.bvUlt(one, y),
            tf.bvUlt(x, tf.bvConst(width, cap)),
            tf.bvUlt(y, tf.bvConst(width, cap)),
            tf.bvUle(x, y),
        };
        return BenchQuery{name, std::move(assertions), expected};
    };

    // Semiprimes (Sat): both factors are primes below 2^(w/2). Sized
    // so the single default lane needs real search (~0.1-1.5s) but no
    // lane needs minutes.
    queries.push_back(factor("factor/30a", 30, 24821ull * 25343ull,
                             smt::SatResult::Sat));
    queries.push_back(factor("factor/30b", 30, 24793ull * 29173ull,
                             smt::SatResult::Sat));
    queries.push_back(factor("factor/30c", 30, 25849ull * 26339ull,
                             smt::SatResult::Sat));
    queries.push_back(factor("factor/32a", 32, 49211ull * 54617ull,
                             smt::SatResult::Sat));
    queries.push_back(factor("factor/32b", 32, 62827ull * 55201ull,
                             smt::SatResult::Sat));
    queries.push_back(factor("factor/32c", 32, 52697ull * 61253ull,
                             smt::SatResult::Sat));
    queries.push_back(factor("factor/34a", 34, 127277ull * 110771ull,
                             smt::SatResult::Sat));
    queries.push_back(factor("factor/34b", 34, 100343ull * 104549ull,
                             smt::SatResult::Sat));
    queries.push_back(factor("factor/34c", 34, 100129ull * 124739ull,
                             smt::SatResult::Sat));
    queries.push_back(factor("factor/34d", 34, 108179ull * 101377ull,
                             smt::SatResult::Sat));
    queries.push_back(factor("factor/36a", 36, 256471ull * 253999ull,
                             smt::SatResult::Sat));
    // Primes (Unsat): verified primes below (cap-1)^2, so the bound
    // constraints alone do not refute them — the solver has to
    // exhaust the factor space.
    queries.push_back(factor("factor-prime/28", 28, 241562429ull,
                             smt::SatResult::Unsat));
    queries.push_back(factor("factor-prime/30", 30, 966308699ull,
                             smt::SatResult::Unsat));

    auto mulchain = [&tf](const std::string &name, unsigned width,
                          uint64_t a, uint64_t b, uint64_t target,
                          smt::SatResult expected) {
        smt::Term x = tf.var("u_" + name, smt::Sort::bitVec(width));
        smt::Term y = tf.var("v_" + name, smt::Sort::bitVec(width));
        std::vector<smt::Term> assertions = {
            tf.mkEq(tf.bvAdd(tf.bvMul(x, tf.bvConst(width, a)),
                             tf.bvMul(y, tf.bvConst(width, b))),
                    tf.bvConst(width, target)),
            tf.bvUlt(x, tf.bvConst(width, 1u << 12)),
            tf.bvUlt(y, tf.bvConst(width, 1u << 12)),
        };
        return BenchQuery{name, std::move(assertions), expected};
    };

    // a*x + b*y == t with bounded x,y: a different query shape (linear
    // over wide words) pinning verdict identity on both polarities.
    // Bounds are kept small so these stay below the hard threshold.
    queries.push_back(mulchain("mulchain/sat", 64, 1000003, 998989,
                               1000003ull * 777 + 998989ull * 333,
                               smt::SatResult::Sat));
    queries.push_back(mulchain("mulchain/unsat", 64, 1000000, 999998,
                               // Both coefficients even, target odd.
                               1000003ull * 4242 + 1,
                               smt::SatResult::Unsat));
    return queries;
}

const char *
satName(smt::SatResult result)
{
    switch (result) {
      case smt::SatResult::Sat: return "sat";
      case smt::SatResult::Unsat: return "unsat";
      case smt::SatResult::Unknown: return "unknown";
    }
    return "?";
}

struct LaneRun
{
    std::string label;
    std::vector<double> seconds;       // per query
    std::vector<smt::SatResult> verdicts;
    smt::SolverStats stats;
};

/** Parses a lane spec, aborting the bench on malformed input. */
std::vector<smt::LaneConfig>
lanesFromSpec(const std::string &spec)
{
    std::vector<smt::LaneConfig> lanes;
    std::string error;
    if (!smt::parsePortfolioLanes(spec, lanes, error)) {
        std::fprintf(stderr, "bad lane spec '%s': %s\n", spec.c_str(),
                     error.c_str());
        std::exit(2);
    }
    return lanes;
}

/**
 * Solves every query on a fresh solver per query. The family's
 * queries are independent instances, so a shared incremental session
 * would only leak learned-lemma state (and, in a portfolio, the
 * losing lane's interrupt-recovery state) from one instance into the
 * next — per-query isolation keeps every timing reproducible in
 * isolation. Solver construction (including lane thread spawn) is
 * inside the timed region; it is sub-millisecond against these
 * queries.
 */
LaneRun
runConfiguration(const std::string &label,
                 const std::vector<smt::LaneConfig> &lanes,
                 const std::vector<BenchQuery> &queries,
                 smt::TermFactory &tf, unsigned timeout_ms)
{
    LaneRun run;
    run.label = label;
    for (const BenchQuery &query : queries) {
        support::Stopwatch watch;
        smt::StackSpec spec;
        spec.lanes = lanes;
        smt::SolverStack stack = smt::buildSolverStack(tf, spec);
        smt::Solver &solver = stack.top();
        solver.setTimeoutMs(timeout_ms);
        smt::SatResult verdict = solver.checkSat(query.assertions);
        run.seconds.push_back(watch.seconds());
        run.verdicts.push_back(verdict);
        run.stats += solver.stats();
    }
    return run;
}

/** Part 1: the query-level race. Returns false on any verdict split. */
bool
runQueryRace(bench::JsonReporter &json)
{
    unsigned timeout_ms = static_cast<unsigned>(
        bench::envSize("KEQ_PORTFOLIO_TIMEOUT_MS", 120000));
    double hard_ms = bench::envDouble("KEQ_PORTFOLIO_HARD_MS", 100.0);
    const char *spec2_env = std::getenv("KEQ_PORTFOLIO_LANES_2");
    const char *spec3_env = std::getenv("KEQ_PORTFOLIO_LANES_3");
    std::string spec2 = spec2_env != nullptr ? spec2_env
                                             : "default,seed7";
    std::string spec3 = spec3_env != nullptr
                            ? spec3_env
                            : "default,seed7,seed11";

    smt::TermFactory tf;
    std::vector<BenchQuery> queries = hardQueryFamily(tf);

    std::cout << "=== E14 part 1: portfolio racing, " << queries.size()
              << " queries ===\n\n";

    LaneRun single = runConfiguration(
        "1 lane (default)", lanesFromSpec("default"), queries, tf,
        timeout_ms);
    LaneRun two = runConfiguration("2 lanes (" + spec2 + ")",
                                   lanesFromSpec(spec2), queries, tf,
                                   timeout_ms);
    std::vector<smt::LaneConfig> three_lanes = lanesFromSpec(spec3);
    LaneRun three = runConfiguration("3 lanes (" + spec3 + ")",
                                     three_lanes, queries, tf,
                                     timeout_ms);

    bool verdicts_identical = true;
    std::printf("%-20s %-8s %12s %12s %12s\n", "query", "verdict",
                "1 lane", "2 lanes", "3 lanes");
    for (size_t i = 0; i < queries.size(); ++i) {
        std::printf("%-20s %-8s %10.0fms %10.0fms %10.0fms\n",
                    queries[i].name.c_str(),
                    satName(single.verdicts[i]),
                    single.seconds[i] * 1e3, two.seconds[i] * 1e3,
                    three.seconds[i] * 1e3);
        if (single.verdicts[i] != queries[i].expected ||
            two.verdicts[i] != queries[i].expected ||
            three.verdicts[i] != queries[i].expected) {
            std::fprintf(stderr,
                         "FAIL: %s expected %s, got %s/%s/%s\n",
                         queries[i].name.c_str(),
                         satName(queries[i].expected),
                         satName(single.verdicts[i]),
                         satName(two.verdicts[i]),
                         satName(three.verdicts[i]));
            verdicts_identical = false;
        }
    }

    // Geomean speedup over the hard subset (single lane > hard_ms).
    auto geomean_vs_single = [&](const LaneRun &raced) {
        double log_sum = 0.0;
        size_t hard = 0;
        for (size_t i = 0; i < queries.size(); ++i) {
            if (single.seconds[i] * 1e3 <= hard_ms)
                continue;
            ++hard;
            log_sum += std::log(single.seconds[i] /
                                std::max(1e-6, raced.seconds[i]));
        }
        return hard == 0 ? 1.0 : std::exp(log_sum / double(hard));
    };
    size_t hard_count = 0;
    double single_total = 0, two_total = 0, three_total = 0;
    for (size_t i = 0; i < queries.size(); ++i) {
        single_total += single.seconds[i];
        two_total += two.seconds[i];
        three_total += three.seconds[i];
        if (single.seconds[i] * 1e3 > hard_ms)
            ++hard_count;
    }
    double geomean2 = geomean_vs_single(two);
    double geomean3 = geomean_vs_single(three);

    std::printf("\nwall clock: 1 lane %.2fs, 2 lanes %.2fs, "
                "3 lanes %.2fs\n",
                single_total, two_total, three_total);
    std::printf("hard subset (>%.0fms single-lane): %zu queries, "
                "geomean speedup 2 lanes %.2fx, 3 lanes %.2fx\n",
                hard_ms, hard_count, geomean2, geomean3);
    std::printf("3-lane win histogram [");
    for (size_t i = 0; i < three_lanes.size(); ++i)
        std::printf("%s%s", i > 0 ? " " : "",
                    three_lanes[i].name.c_str());
    std::printf("]: [%llu %llu %llu], %llu losers cancelled\n",
                (unsigned long long)three.stats.portfolioWins[0],
                (unsigned long long)three.stats.portfolioWins[1],
                (unsigned long long)three.stats.portfolioWins[2],
                (unsigned long long)three.stats.portfolioCancellations);
    std::printf("verdicts: %s\n\n", verdicts_identical
                                        ? "identical across all lanes"
                                        : "SPLIT (hard failure)");

    double geomean_best = std::max(geomean2, geomean3);
    std::printf("geomean target (>=1.3x on hard subset): %s "
                "(best %.2fx)\n\n",
                geomean_best >= 1.3 ? "MET" : "NOT MET", geomean_best);

    json.field("queries", uint64_t{queries.size()});
    json.field("hard_queries", uint64_t{hard_count});
    json.field("hard_threshold_ms", hard_ms);
    json.field("two_lane_roster", spec2);
    json.field("three_lane_roster", spec3);
    json.field("single_lane_seconds", single_total);
    json.field("two_lane_seconds", two_total);
    json.field("three_lane_seconds", three_total);
    json.field("geomean_speedup_2lanes_hard", geomean2);
    json.field("geomean_speedup_3lanes_hard", geomean3);
    json.field("wins_lane0", three.stats.portfolioWins[0]);
    json.field("wins_lane1", three.stats.portfolioWins[1]);
    json.field("wins_lane2", three.stats.portfolioWins[2]);
    json.field("portfolio_cancellations",
               three.stats.portfolioCancellations);
    json.field("cross_lane_disagreements",
               three.stats.crossLaneDisagreements +
                   two.stats.crossLaneDisagreements);
    json.field("verdicts_identical", verdicts_identical);
    json.field("geomean_target_met", geomean_best >= 1.3);
    return verdicts_identical;
}

/** Part 2: batched discharge over the conformance corpus. */
bool
runBatchedDischarge(bench::JsonReporter &json)
{
    std::vector<conformance::CorpusCase> cases =
        conformance::loadCorpusDir(KEQ_CORPUS_DIR);

    std::cout << "=== E14 part 2: batched discharge, " << cases.size()
              << " corpus files ===\n\n";

    bool verdicts_identical = true;
    double plain_seconds = 0, batched_seconds = 0;
    uint64_t batched_queries = 0;
    for (const conformance::CorpusCase &corpus_case : cases) {
        llvmir::Module module =
            llvmir::parseModule(corpus_case.source);
        llvmir::verifyModuleOrThrow(module);

        driver::PipelineOptions plain_options;
        plain_options.isel = corpus_case.isel;
        support::Stopwatch watch;
        driver::ModuleReport plain =
            driver::Pipeline(plain_options, {}).run(module);
        plain_seconds += watch.seconds();

        driver::PipelineOptions batched_options = plain_options;
        batched_options.checker.batchDischarge = true;
        watch.reset();
        driver::ModuleReport batched =
            driver::Pipeline(batched_options, {}).run(module);
        batched_seconds += watch.seconds();

        if (plain.canonicalSummary() != batched.canonicalSummary()) {
            std::fprintf(stderr,
                         "FAIL: batched discharge changed verdicts "
                         "for %s\n",
                         corpus_case.name.c_str());
            verdicts_identical = false;
        }
        batched_queries += batched.solverStats.batchedQueries;
    }

    std::printf("unbatched: %.2fs, batched: %.2fs (%.2fx), "
                "%llu obligations discharged through warm sessions\n",
                plain_seconds, batched_seconds,
                plain_seconds / std::max(1e-9, batched_seconds),
                (unsigned long long)batched_queries);
    std::printf("verdicts: %s\n\n",
                verdicts_identical ? "identical across both modes"
                                   : "SPLIT (hard failure)");

    json.field("corpus_files", uint64_t{cases.size()});
    json.field("unbatched_seconds", plain_seconds);
    json.field("batched_seconds", batched_seconds);
    json.field("batched_queries", batched_queries);
    json.field("batched_verdicts_identical", verdicts_identical);
    return verdicts_identical;
}

} // namespace

int
main()
{
    bench::JsonReporter json;
    json.field("bench", std::string("portfolio"));

    bool ok = runQueryRace(json);
    ok = runBatchedDischarge(json) && ok;

    json.writeFile("BENCH_portfolio.json");
    return ok ? 0 : 1;
}
