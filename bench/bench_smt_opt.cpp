/**
 * @file
 * Experiment E7 — the Section 3 SMT query optimization ablation — plus
 * the optimization-stack benchmark for the incremental backend.
 *
 * Part 1 (optimization stack): the Figure 6 corpus validated twice
 * through identically-configured pipelines, once with the reference
 * stack (serial, cold Z3 per query, no preprocessing, no cache) and once
 * with the full stack (rewrite engine -> cone slicer -> cache -> incremental Z3).
 * The harness *asserts* verdict identity — the stack must shift timings,
 * never outcomes — then reports the per-function geomean speedup and the
 * per-stage attribution of where queries were resolved.
 *
 * Part 2 (E7 proper): the paper replaces the negative-form query
 * unsat(phi1 && !phi2) by the positive form
 * unsat(phi1 && (phi2' || phi2'' || ...)) over the sibling path
 * conditions of a deterministic semantics, reporting that Z3 solves the
 * positive form much faster. Measured end-to-end on a corpus and micro
 * on synthetic path-condition families of growing width.
 */

#include <cmath>
#include <cstdio>
#include <iostream>

#include <benchmark/benchmark.h>

#include "bench/bench_common.h"
#include "src/driver/corpus.h"
#include "src/driver/pipeline.h"
#include "src/llvmir/parser.h"
#include "src/llvmir/verifier.h"
#include "src/smt/term_factory.h"
#include "src/smt/z3_solver.h"
#include "src/support/stopwatch.h"

namespace {

using namespace keq;

/** Builds a family of disjoint, total branch conditions over k nested
 *  comparisons, mimicking a k-way cut-successor family. */
std::vector<smt::Term>
conditionFamily(smt::TermFactory &tf, unsigned k)
{
    smt::Term x = tf.var("x", smt::Sort::bitVec(64));
    smt::Term m = tf.var("m", smt::Sort::memArray());
    std::vector<smt::Term> family;
    smt::Term rest = tf.trueTerm();
    for (unsigned i = 0; i < k; ++i) {
        // Conditions also mention memory bytes so the negation carries
        // array terms (the expensive case the paper describes).
        smt::Term byte =
            tf.select(m, tf.bvAdd(x, tf.bvConst(64, i)));
        smt::Term cond = tf.mkAnd(
            tf.bvUlt(tf.zext(byte, 64), tf.bvConst(64, 77 + i)),
            tf.bvUlt(x, tf.bvConst(64, 1000 + 13 * i)));
        family.push_back(tf.mkAnd(rest, cond));
        rest = tf.mkAnd(rest, tf.mkNot(cond));
    }
    family.push_back(rest);
    return family;
}

void
BM_NegativeForm(benchmark::State &state)
{
    smt::TermFactory tf;
    smt::Z3Solver solver(tf);
    unsigned k = static_cast<unsigned>(state.range(0));
    std::vector<smt::Term> family = conditionFamily(tf, k);
    smt::Term phi1 = family[0];
    for (auto _ : state) {
        // unsat(phi1 && !phi1') where phi1' is the matching sibling:
        // modelled as phi1 itself (valid implication, worst-case form).
        benchmark::DoNotOptimize(
            solver.checkSat({tf.mkAnd(phi1, tf.mkNot(family[0]))}));
        // Plus one genuine cross check against another member.
        benchmark::DoNotOptimize(
            solver.checkSat({tf.mkAnd(phi1, tf.mkNot(family[1]))}));
    }
    state.counters["queries"] =
        static_cast<double>(solver.stats().queries);
}
BENCHMARK(BM_NegativeForm)->Arg(2)->Arg(4)->Arg(8);

void
BM_PositiveForm(benchmark::State &state)
{
    smt::TermFactory tf;
    smt::Z3Solver solver(tf);
    unsigned k = static_cast<unsigned>(state.range(0));
    std::vector<smt::Term> family = conditionFamily(tf, k);
    smt::Term phi1 = family[0];
    for (auto _ : state) {
        // unsat(phi1 && OR(siblings)) — the Section 3 positive form.
        smt::Term siblings = tf.falseTerm();
        for (size_t j = 1; j < family.size(); ++j)
            siblings = tf.mkOr(siblings, family[j]);
        benchmark::DoNotOptimize(
            solver.checkSat({tf.mkAnd(phi1, siblings)}));
        smt::Term siblings_of_1 = tf.falseTerm();
        for (size_t j = 0; j < family.size(); ++j) {
            if (j != 1)
                siblings_of_1 = tf.mkOr(siblings_of_1, family[j]);
        }
        benchmark::DoNotOptimize(
            solver.checkSat({tf.mkAnd(phi1, siblings_of_1)}));
    }
    state.counters["queries"] =
        static_cast<double>(solver.stats().queries);
}
BENCHMARK(BM_PositiveForm)->Arg(2)->Arg(4)->Arg(8);

} // namespace

/**
 * The optimization-stack comparison: PR 1 cached-serial baseline vs the
 * full rewrite/slice/incremental stack on the Figure 6 corpus. Returns
 * false when the two runs disagree on any verdict (the harness's hard
 * failure).
 */
bool
runStackComparison()
{
    using namespace keq;

    size_t function_count = bench::envSize("KEQ_SMT_FUNCTIONS", 120);
    driver::CorpusOptions copts;
    copts.functionCount = function_count;
    copts.seed = 0x6cc2006; // the Figure 6 corpus
    llvmir::Module module =
        llvmir::parseModule(driver::generateCorpusSource(copts));
    llvmir::verifyModuleOrThrow(module);

    driver::PipelineOptions options; // no wall budgets: verdicts must
                                     // be timing-independent

    std::cout << "=== SMT optimization stack: rewrite + slice + "
                 "incremental Z3 ===\n";
    std::cout << "corpus: " << function_count
              << " Figure 6 functions (seed " << copts.seed << ")\n\n";

    // Baseline: the reference stack — serial, cold Z3 per query, no
    // preprocessing, no cache.
    driver::ExecutionOptions base_exec;
    base_exec.jobs = 1;
    base_exec.optimizeQueries = false;
    support::Stopwatch watch;
    driver::ModuleReport baseline =
        driver::Pipeline(options, base_exec).run(module);
    double baseline_seconds = watch.seconds();

    // Full stack: the ExecutionOptions defaults.
    driver::ExecutionOptions opt_exec;
    opt_exec.jobs = 1;
    watch.reset();
    driver::ModuleReport optimized =
        driver::Pipeline(options, opt_exec).run(module);
    double optimized_seconds = watch.seconds();

    if (baseline.canonicalSummary() != optimized.canonicalSummary()) {
        std::cerr << "FAIL: optimization stack changed verdicts\n";
        return false;
    }

    // Per-function geomean of the speedup, with a floor so sub-noise
    // timings cannot dominate the mean either way.
    constexpr double kFloorSeconds = 1e-5;
    double log_sum = 0.0;
    for (size_t i = 0; i < baseline.functions.size(); ++i) {
        double base = std::max(baseline.functions[i].seconds,
                               kFloorSeconds);
        double opt = std::max(optimized.functions[i].seconds,
                              kFloorSeconds);
        log_sum += std::log(base / opt);
    }
    double geomean = baseline.functions.empty()
                         ? 1.0
                         : std::exp(log_sum /
                                    double(baseline.functions.size()));

    const smt::SolverStats &stats = optimized.solverStats;
    std::printf("reference stack:        %7.2f s  (%.2f s in solver)\n",
                baseline_seconds,
                baseline.solverStats.totalSeconds);
    std::printf("optimized stack:        %7.2f s  (%.2f s in solver)\n",
                optimized_seconds, stats.totalSeconds);
    std::printf("wall speedup: %.2fx, per-function geomean: %.2fx\n\n",
                baseline_seconds / std::max(1e-9, optimized_seconds),
                geomean);
    std::printf(
        "stage attribution (%llu queries):\n"
        "  rewrite:     %llu resolved (%llu rule firings)\n"
        "  slice:       %llu resolved (%llu assertions pruned)\n"
        "  cache:       %llu hits\n"
        "  incremental: %llu misses to backend — %llu warm / %llu "
        "cold solves, %llu assertions reused, %llu fallbacks\n",
        static_cast<unsigned long long>(stats.queries),
        static_cast<unsigned long long>(stats.rewriteResolved),
        static_cast<unsigned long long>(stats.rewriteApplications),
        static_cast<unsigned long long>(stats.sliceResolved),
        static_cast<unsigned long long>(stats.slicedAssertions),
        static_cast<unsigned long long>(stats.cacheHits),
        static_cast<unsigned long long>(stats.cacheMisses),
        static_cast<unsigned long long>(stats.incrementalSolves),
        static_cast<unsigned long long>(stats.coldSolves),
        static_cast<unsigned long long>(stats.incrementalReused),
        static_cast<unsigned long long>(stats.incrementalFallbacks));
    std::printf("verdicts: identical across both runs\n\n");

    bench::JsonReporter json;
    json.field("bench", std::string("smt_opt"));
    json.field("functions", uint64_t{function_count});
    json.field("baseline_seconds", baseline_seconds);
    json.field("optimized_seconds", optimized_seconds);
    json.field("baseline_solver_seconds",
               baseline.solverStats.totalSeconds);
    json.field("optimized_solver_seconds", stats.totalSeconds);
    json.field("wall_speedup",
               baseline_seconds / std::max(1e-9, optimized_seconds));
    json.field("geomean_speedup", geomean);
    smt::forEachCounter([&](smt::CounterInfo info,
                            auto value) { json.field(info.key, value); },
                        stats);
    json.field("verdicts_identical", true);
    json.writeFile("BENCH_smt.json");
    return true;
}

int
main(int argc, char **argv)
{
    if (!runStackComparison())
        return 1;

    size_t function_count = bench::envSize("KEQ_SMTOPT_FUNCTIONS", 150);
    driver::CorpusOptions copts;
    copts.functionCount = function_count;
    copts.seed = 0x5a7; // fixed

    std::cout << "=== E7 / Section 3: SMT query optimization ===\n\n";
    std::string source = driver::generateCorpusSource(copts);

    auto run = [&](bool positive) {
        driver::PipelineOptions options;
        options.checker.positiveFormOpt = positive;
        driver::ModuleReport report =
            driver::validateSource(source, options);
        uint64_t queries = 0;
        double solver_seconds = 0.0;
        size_t succeeded = report.countOutcome(
            driver::Outcome::Succeeded);
        for (const driver::FunctionReport &fn : report.functions) {
            queries += fn.verdict.stats.solverQueries;
            solver_seconds += fn.verdict.stats.solverSeconds;
        }
        std::printf("%s form: %zu/%zu validated, %llu queries, "
                    "%.3f s solver time\n",
                    positive ? "positive" : "negative", succeeded,
                    report.functions.size(),
                    static_cast<unsigned long long>(queries),
                    solver_seconds);
        return solver_seconds;
    };

    double neg = run(false);
    double pos = run(true);
    std::printf("solver-time ratio negative/positive: %.2fx\n\n",
                neg / std::max(1e-9, pos));

    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
