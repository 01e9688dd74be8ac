/**
 * @file
 * Experiment E13 — conformance-matrix throughput (no paper
 * counterpart; the differential conformance harness of DESIGN.md §12).
 *
 * Runs the checked-in corpus (tests/corpus) through the 8-cell
 * configuration matrix and reports wall-clock per (file, cell) validation, the
 * verdict-identity outcome, and the coverage ledger totals. The bench
 * doubles as a release-shaped rehearsal of the `conformance` ctest
 * gate: it fails loudly on any EXPECT mismatch, any cross-cell verdict
 * divergence, or an incomplete opcode ledger.
 */

#include <cstdio>
#include <iostream>

#include "bench/bench_common.h"
#include "src/conformance/corpus.h"
#include "src/conformance/runner.h"
#include "src/support/stopwatch.h"

namespace {

/** "sandbox=1 smtopt=1 jobs=4" -> "s1_o1_j4" (JSON key). */
std::string
cellKey(const keq::conformance::MatrixCell &cell)
{
    std::string key = "s";
    key += cell.sandbox ? '1' : '0';
    key += "_o";
    key += cell.smtOpt ? '1' : '0';
    key += "_j";
    key += std::to_string(cell.jobs);
    return key;
}

} // namespace

int
main()
{
    using namespace keq;

    std::vector<conformance::CorpusCase> cases =
        conformance::loadCorpusDir(KEQ_CORPUS_DIR);

    conformance::RunnerOptions options;
    options.workerPath = KEQ_WORKER_BIN;

    std::cout << "=== E13: conformance matrix throughput ===\n";
    std::cout << "corpus: " << cases.size() << " files, "
              << options.matrix.size() << " configuration cells\n\n";

    conformance::ConformanceReport report =
        conformance::runConformance(cases, options);

    std::cout << report.renderTable() << "\n";
    std::cout << report.coverage.report();

    size_t validations = cases.size() * options.matrix.size();
    double per_validation =
        validations > 0 ? report.seconds / static_cast<double>(
                                               validations)
                        : 0.0;
    std::printf("\n%zu validations in %.2f s (%.1f ms each)\n",
                validations, report.seconds, per_validation * 1e3);

    // Per-cell wall-clock breakdown: the same corpus timed one
    // configuration at a time, so the cost of each knob (sandbox IPC,
    // the optimized stack, parallelism) is visible in isolation.
    std::printf("\nper-cell breakdown:\n");
    std::vector<std::pair<std::string, double>> cell_seconds;
    for (const conformance::MatrixCell &cell : options.matrix) {
        support::Stopwatch watch;
        for (const conformance::CorpusCase &corpus_case : cases)
            conformance::runCase(corpus_case, cell, options);
        double seconds = watch.seconds();
        cell_seconds.emplace_back(cellKey(cell), seconds);
        std::printf("  [%s] %6.2f s (%5.1f ms/file)\n",
                    cell.label().c_str(), seconds,
                    cases.empty()
                        ? 0.0
                        : seconds * 1e3 /
                              static_cast<double>(cases.size()));
    }

    bool coverage_complete = report.coverage.uncoveredOpcodes().empty();
    bool ok = report.allOk() && !report.degradedSandbox &&
              coverage_complete;
    if (!ok)
        std::cerr << "FAIL: conformance matrix not clean (mismatches="
                  << report.expectMismatches() << " inconsistencies="
                  << report.matrixInconsistencies() << " degraded="
                  << (report.degradedSandbox ? 1 : 0)
                  << " opcode-coverage="
                  << (coverage_complete ? "full" : "INCOMPLETE")
                  << ")\n";

    bench::JsonReporter json;
    json.field("bench", std::string("conformance"));
    json.field("files", uint64_t{cases.size()});
    json.field("cells", uint64_t{options.matrix.size()});
    json.field("seconds", report.seconds);
    json.field("seconds_per_validation", per_validation);
    json.field("expect_mismatches", uint64_t{report.expectMismatches()});
    json.field("matrix_inconsistencies",
               uint64_t{report.matrixInconsistencies()});
    json.field("degraded_sandbox", report.degradedSandbox);
    json.field("instructions_recorded",
               report.coverage.totalInstructions());
    json.field("uncovered_opcodes",
               uint64_t{report.coverage.uncoveredOpcodes().size()});
    json.field("uncovered_preds",
               uint64_t{report.coverage.uncoveredPreds().size()});
    json.field("uncovered_shapes",
               uint64_t{report.coverage.uncoveredShapes().size()});
    for (const auto &[key, seconds] : cell_seconds)
        json.field("cell_" + key + "_seconds", seconds);
    json.writeFile("BENCH_conformance.json");
    return ok ? 0 : 1;
}
