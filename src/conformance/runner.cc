#include "src/conformance/runner.h"

#include <chrono>
#include <sstream>

#include "src/llvmir/parser.h"
#include "src/llvmir/verifier.h"
#include "src/support/diagnostics.h"

namespace keq::conformance {

std::string
MatrixCell::label() const
{
    std::ostringstream os;
    os << "sandbox=" << (sandbox ? 1 : 0) << " smtopt=" << (smtOpt ? 1 : 0)
       << " jobs=" << jobs;
    return os.str();
}

std::vector<MatrixCell>
fullMatrix()
{
    std::vector<MatrixCell> cells;
    for (bool sandbox : {false, true})
        for (bool smt_opt : {true, false})
            for (unsigned jobs : {1u, 4u})
                cells.push_back({sandbox, smt_opt, jobs});
    return cells;
}

driver::ModuleReport
runCase(const CorpusCase &corpus_case, const MatrixCell &cell,
        const RunnerOptions &options, bool *degraded)
{
    llvmir::Module module = llvmir::parseModule(corpus_case.source);
    llvmir::verifyModuleOrThrow(module);

    driver::PipelineOptions pipeline_options;
    pipeline_options.isel = corpus_case.isel;

    driver::ExecutionOptions exec;
    exec.jobs = cell.jobs;
    exec.optimizeQueries = cell.smtOpt;
    exec.sandbox = cell.sandbox;
    exec.workerPath = options.workerPath;
    if (cell.sandbox)
        exec.sandboxWorkers = cell.jobs;

    driver::Pipeline pipeline(pipeline_options, exec);
    driver::ModuleReport report = pipeline.runParallel(module);
    if (degraded != nullptr && cell.sandbox)
        *degraded = pipeline.sandboxSupervisor(1) == nullptr;
    return report;
}

bool
matchesExpect(const driver::ModuleReport &report, Expect expect)
{
    if (report.functions.empty())
        return false;
    for (const driver::FunctionReport &fn : report.functions) {
        switch (expect) {
        case Expect::Validated:
            if (fn.outcome != driver::Outcome::Succeeded)
                return false;
            break;
        case Expect::Rejected:
            if (fn.outcome != driver::Outcome::Other ||
                fn.verdict.kind != checker::VerdictKind::NotValidated)
                return false;
            break;
        case Expect::Gap:
            // A gap is either an unsupported fragment or a known
            // completeness gap (correct lowering the checker cannot
            // prove); both are honest refusals, never Succeeded.
            if (fn.outcome != driver::Outcome::Unsupported &&
                !(fn.outcome == driver::Outcome::Other &&
                  fn.verdict.kind ==
                      checker::VerdictKind::NotValidated))
                return false;
            break;
        }
    }
    return true;
}

std::string
outcomeSectionJson(const driver::ModuleReport &report)
{
    auto count = [&report](driver::Outcome outcome) {
        return static_cast<unsigned long long>(
            report.countOutcome(outcome));
    };
    std::ostringstream out;
    out << "  \"outcomes\": {\n"
        << "    \"succeeded\": " << count(driver::Outcome::Succeeded)
        << ",\n"
        << "    \"timeout\": " << count(driver::Outcome::Timeout)
        << ",\n"
        << "    \"out_of_memory\": "
        << count(driver::Outcome::OutOfMemory) << ",\n"
        << "    \"other\": " << count(driver::Outcome::Other) << ",\n"
        << "    \"unsupported\": " << count(driver::Outcome::Unsupported)
        << "\n  }";
    return out.str();
}

namespace {

/** Reference verdict (first defined function drives the headline). */
void
fillReferenceVerdict(CaseResult &result,
                     const driver::ModuleReport &report)
{
    if (report.functions.empty())
        return;
    result.outcome = report.functions.front().outcome;
    result.kind = report.functions.front().verdict.kind;
}

} // namespace

ConformanceReport
runConformance(const std::vector<CorpusCase> &cases,
               const RunnerOptions &options)
{
    auto start = std::chrono::steady_clock::now();
    ConformanceReport report;
    report.cellsPerCase = options.matrix.size();
    if (options.matrix.empty())
        throw support::Error("conformance: empty configuration matrix");

    for (const CorpusCase &corpus_case : cases) {
        CaseResult result;
        result.name = corpus_case.name;
        result.expect = corpus_case.expect;

        // The ledger records what the corpus *contains*; whether the
        // pipeline could decide it is the EXPECT gate's business.
        {
            llvmir::Module module =
                llvmir::parseModule(corpus_case.source);
            report.coverage.recordModule(module);
        }

        std::string reference_canonical;
        for (size_t i = 0; i < options.matrix.size(); ++i) {
            const MatrixCell &cell = options.matrix[i];
            bool cell_degraded = false;
            driver::ModuleReport cell_report =
                runCase(corpus_case, cell, options, &cell_degraded);
            if (cell_degraded)
                report.degradedSandbox = true;

            CellResult cell_result;
            cell_result.cell = cell.label();
            cell_result.canonical = cell_report.canonicalSummary();
            if (!cell_report.functions.empty()) {
                cell_result.outcome =
                    cell_report.functions.front().outcome;
                cell_result.kind =
                    cell_report.functions.front().verdict.kind;
            }

            if (i == 0) {
                reference_canonical = cell_result.canonical;
                fillReferenceVerdict(result, cell_report);
                result.expectMatched =
                    matchesExpect(cell_report, corpus_case.expect);
                if (!result.expectMatched) {
                    result.detail = "expected " +
                                    std::string(expectName(
                                        corpus_case.expect)) +
                                    ", got " +
                                    driver::outcomeName(result.outcome);
                }
            } else if (cell_result.canonical != reference_canonical) {
                result.matrixConsistent = false;
                if (result.detail.empty())
                    result.detail =
                        "verdict diverges in cell [" + cell.label() +
                        "]";
            }
            result.cells.push_back(std::move(cell_result));
        }
        report.cases.push_back(std::move(result));
    }

    std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - start;
    report.seconds = elapsed.count();
    return report;
}

size_t
ConformanceReport::expectMismatches() const
{
    size_t count = 0;
    for (const CaseResult &result : cases)
        if (!result.expectMatched)
            ++count;
    return count;
}

size_t
ConformanceReport::matrixInconsistencies() const
{
    size_t count = 0;
    for (const CaseResult &result : cases)
        if (!result.matrixConsistent)
            ++count;
    return count;
}

bool
ConformanceReport::allOk() const
{
    return expectMismatches() == 0 && matrixInconsistencies() == 0;
}

std::string
ConformanceReport::renderTable() const
{
    std::ostringstream out;
    out << "conformance: " << cases.size() << " corpus files x "
        << cellsPerCase << " configuration cells\n";
    for (const CaseResult &result : cases) {
        out << "  " << result.name << ": "
            << driver::outcomeName(result.outcome) << "/"
            << checker::verdictKindName(result.kind) << " expect="
            << expectName(result.expect) << " ["
            << (result.expectMatched ? "match" : "MISMATCH") << ", "
            << (result.matrixConsistent ? "consistent" : "INCONSISTENT")
            << "]";
        if (!result.detail.empty())
            out << " " << result.detail;
        out << "\n";
    }
    out << "expect mismatches: " << expectMismatches()
        << ", matrix inconsistencies: " << matrixInconsistencies()
        << "\n";
    if (degradedSandbox)
        out << "WARNING: sandbox cells degraded to in-process solving "
               "(worker binary not found)\n";
    return out.str();
}

} // namespace keq::conformance
