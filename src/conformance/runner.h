#ifndef KEQ_CONFORMANCE_RUNNER_H
#define KEQ_CONFORMANCE_RUNNER_H

/**
 * @file
 * The differential conformance runner (DESIGN.md §12).
 *
 * Drives every corpus file through the full validation stack in a
 * *configuration matrix* — in-process vs sandboxed solving, the
 * optimized vs the reference solver stack, 1 vs 4 worker threads —
 * and asserts two properties per file:
 *
 *   1. matrix consistency — every cell produces the identical canonical
 *      report (outcome, verdict kind, failure class, per-function
 *      counters). Execution configuration must never be able to change
 *      a verdict; this is the same transparency contract the sandbox
 *      and smt-opt benches assert, checked here over hand-written
 *      adversarial inputs instead of the synthetic Figure 6 corpus.
 *   2. expectation match — the reference cell's verdict agrees with the
 *      file's `; EXPECT:` annotation.
 *
 * The runner also feeds every module through the CoverageMap ledger, so
 * a conformance run reports (and the ctest gate asserts) which opcodes,
 * icmp predicates and structural shapes the corpus actually exercised.
 */

#include <string>
#include <vector>

#include "src/conformance/corpus.h"
#include "src/driver/pipeline.h"
#include "src/llvmir/coverage.h"

namespace keq::conformance {

/** One execution-configuration cell of the conformance matrix. */
struct MatrixCell
{
    bool sandbox = false;
    /** ExecutionOptions::optimizeQueries: the optimized stack, or the
     *  reference stack (no front, no cache, the cold lane). */
    bool smtOpt = true;
    unsigned jobs = 1;

    /** "sandbox=0 smtopt=1 jobs=4" (stable key). */
    std::string label() const;
};

/** The full 2x2x2 matrix (8 cells). */
std::vector<MatrixCell> fullMatrix();

struct RunnerOptions
{
    std::vector<MatrixCell> matrix = fullMatrix();
    /**
     * keq-solver-worker binary for the sandbox cells; empty uses
     * smt::discoverWorkerBinary. When no worker can be found the
     * sandbox cells still run (the pipeline degrades to in-process
     * solving and the report flags degradedSandbox), so the suite
     * stays runnable on stripped installs.
     */
    std::string workerPath;
};

/** Verdict of one (file, cell) pair. */
struct CellResult
{
    std::string cell;
    driver::Outcome outcome = driver::Outcome::Other;
    checker::VerdictKind kind = checker::VerdictKind::NotValidated;
    /** ModuleReport::canonicalSummary (the identity witness). */
    std::string canonical;
};

struct CaseResult
{
    std::string name;
    Expect expect = Expect::Validated;
    /** Reference-cell verdict (first matrix cell). */
    driver::Outcome outcome = driver::Outcome::Other;
    checker::VerdictKind kind = checker::VerdictKind::NotValidated;
    bool matrixConsistent = true;
    bool expectMatched = true;
    std::string detail; ///< First mismatch description; empty when ok.
    std::vector<CellResult> cells;
};

struct ConformanceReport
{
    std::vector<CaseResult> cases;
    CoverageMap coverage;
    size_t cellsPerCase = 0;
    /** True when a sandbox cell ran without a worker binary. */
    bool degradedSandbox = false;
    double seconds = 0.0;

    size_t expectMismatches() const;
    size_t matrixInconsistencies() const;
    /** Every case matched its EXPECT and was cell-consistent? */
    bool allOk() const;
    std::string renderTable() const;
};

/** Runs the matrix over @p cases. */
ConformanceReport runConformance(const std::vector<CorpusCase> &cases,
                                 const RunnerOptions &options);

/**
 * Validates one corpus case in one cell. Exposed for the parity tests,
 * which byte-compare outcome sections across hand-picked cells.
 * @p degraded, when non-null, is set to true if the cell requested the
 * sandbox but the pipeline fell back to in-process solving (worker
 * binary missing or broken).
 */
driver::ModuleReport runCase(const CorpusCase &corpus_case,
                             const MatrixCell &cell,
                             const RunnerOptions &options,
                             bool *degraded = nullptr);

/**
 * The `"outcomes": {...}` section of `keqc --stats-json`, rendered
 * byte-identically, so tests can compare configuration cells exactly
 * the way dashboards diff stats dumps.
 */
std::string outcomeSectionJson(const driver::ModuleReport &report);

/** Does @p report satisfy @p expect? (all-functions quantification) */
bool matchesExpect(const driver::ModuleReport &report, Expect expect);

} // namespace keq::conformance

#endif // KEQ_CONFORMANCE_RUNNER_H
