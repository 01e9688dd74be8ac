/**
 * @file
 * keq-conformance — differential conformance harness (DESIGN.md §12).
 *
 * Loads the checked-in corpus (the .ll files under tests/corpus),
 * runs every file
 * through the full validation stack in an 8-cell configuration matrix
 * (in-process vs sandboxed solving, the optimized vs the reference
 * solver stack, 1 vs 4 jobs), and asserts that
 *
 *   1. every cell reaches the identical canonical verdict, and
 *   2. the verdict agrees with the file's `; EXPECT:` annotation.
 *
 * It also prints the opcode/predicate/shape coverage ledger; with
 * --require-coverage the run fails if any supported construct is
 * uncovered by the corpus, which is the ctest completeness gate.
 *
 * Usage:
 *   keq-conformance [options]
 *     --corpus=DIR        corpus directory (default tests/corpus)
 *     --worker-path=PATH  explicit keq-solver-worker binary for the
 *                         sandbox cells
 *     --no-sandbox        drop the sandbox cells (stripped installs)
 *     --require-coverage  fail unless every opcode, icmp predicate and
 *                         structural shape is exercised
 *     --list              print the parsed corpus and exit
 *     --coverage          print the full coverage ledger
 *     --json=PATH         dump the report as JSON
 *
 * Exit code: 0 all cells consistent and all EXPECTs matched (and, with
 * --require-coverage, ledger complete); 1 conformance failure;
 * 2 usage; 65 corpus unreadable/unparsable.
 */

#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "src/conformance/runner.h"
#include "src/support/diagnostics.h"

namespace {

struct CliOptions
{
    std::string corpus_dir = "tests/corpus";
    std::string worker_path;
    std::string json_path;
    bool no_sandbox = false;
    bool require_coverage = false;
    bool list = false;
    bool print_coverage = false;
};

[[noreturn]] void
usage(const char *argv0)
{
    std::cerr << "usage: " << argv0 << " [options]\n"
              << "  --corpus=DIR --worker-path=PATH --no-sandbox\n"
              << "  --require-coverage --list --coverage --json=PATH\n";
    std::exit(2);
}

bool
eatPrefix(const std::string &arg, const char *prefix, std::string &value)
{
    std::string p(prefix);
    if (arg.rfind(p, 0) != 0)
        return false;
    value = arg.substr(p.size());
    return true;
}

CliOptions
parseArgs(int argc, char **argv)
{
    CliOptions options;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        std::string value;
        if (eatPrefix(arg, "--corpus=", value))
            options.corpus_dir = value;
        else if (eatPrefix(arg, "--worker-path=", value))
            options.worker_path = value;
        else if (eatPrefix(arg, "--json=", value))
            options.json_path = value;
        else if (arg == "--no-sandbox")
            options.no_sandbox = true;
        else if (arg == "--require-coverage")
            options.require_coverage = true;
        else if (arg == "--list")
            options.list = true;
        else if (arg == "--coverage")
            options.print_coverage = true;
        else
            usage(argv[0]);
    }
    return options;
}

std::string
jsonEscape(const std::string &text)
{
    std::string out;
    out.reserve(text.size());
    for (char c : text) {
        switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\t': out += "\\t"; break;
        default: out += c;
        }
    }
    return out;
}

void
writeJson(const std::string &path,
          const keq::conformance::ConformanceReport &report)
{
    std::ofstream out(path);
    if (!out)
        throw keq::support::Error("cannot write '" + path + "'");
    out << "{\n";
    out << "  \"cases\": " << report.cases.size() << ",\n";
    out << "  \"cells_per_case\": " << report.cellsPerCase << ",\n";
    out << "  \"expect_mismatches\": " << report.expectMismatches()
        << ",\n";
    out << "  \"matrix_inconsistencies\": "
        << report.matrixInconsistencies() << ",\n";
    out << "  \"degraded_sandbox\": "
        << (report.degradedSandbox ? "true" : "false") << ",\n";
    out << "  \"seconds\": " << report.seconds << ",\n";
    out << "  \"coverage_complete\": "
        << (report.coverage.complete() ? "true" : "false") << ",\n";
    out << "  \"coverage\": \""
        << jsonEscape(report.coverage.serialize()) << "\",\n";
    out << "  \"results\": [\n";
    for (size_t i = 0; i < report.cases.size(); ++i) {
        const keq::conformance::CaseResult &result = report.cases[i];
        out << "    {\"name\": \"" << jsonEscape(result.name)
            << "\", \"expect\": \""
            << keq::conformance::expectName(result.expect)
            << "\", \"outcome\": \""
            << keq::driver::outcomeName(result.outcome)
            << "\", \"verdict\": \""
            << keq::checker::verdictKindName(result.kind)
            << "\", \"expect_matched\": "
            << (result.expectMatched ? "true" : "false")
            << ", \"matrix_consistent\": "
            << (result.matrixConsistent ? "true" : "false") << "}"
            << (i + 1 < report.cases.size() ? "," : "") << "\n";
    }
    out << "  ]\n";
    out << "}\n";
}

} // namespace

int
main(int argc, char **argv)
{
    CliOptions cli = parseArgs(argc, argv);

    std::vector<keq::conformance::CorpusCase> cases;
    try {
        cases = keq::conformance::loadCorpusDir(cli.corpus_dir);
    } catch (const keq::support::Error &err) {
        std::cerr << "keq-conformance: " << err.what() << "\n";
        return 65;
    }

    if (cli.list) {
        for (const keq::conformance::CorpusCase &corpus_case : cases)
            std::cout << corpus_case.name << " expect="
                      << keq::conformance::expectName(corpus_case.expect)
                      << "\n";
        std::cout << cases.size() << " corpus files\n";
        return 0;
    }

    keq::conformance::RunnerOptions runner_options;
    runner_options.workerPath = cli.worker_path;
    if (cli.no_sandbox) {
        std::vector<keq::conformance::MatrixCell> kept;
        for (const keq::conformance::MatrixCell &cell :
             runner_options.matrix)
            if (!cell.sandbox)
                kept.push_back(cell);
        runner_options.matrix = kept;
    }

    keq::conformance::ConformanceReport report;
    try {
        report = keq::conformance::runConformance(cases, runner_options);
    } catch (const keq::support::Error &err) {
        std::cerr << "keq-conformance: " << err.what() << "\n";
        return 65;
    }

    std::cout << report.renderTable();

    std::cout << "coverage: "
              << keq::kOpcodeCount -
                     report.coverage.uncoveredOpcodes().size()
              << "/" << keq::kOpcodeCount << " opcodes, "
              << keq::kICmpPredCount -
                     report.coverage.uncoveredPreds().size()
              << "/" << keq::kICmpPredCount << " icmp predicates, "
              << keq::kCoverageShapeCount -
                     report.coverage.uncoveredShapes().size()
              << "/" << keq::kCoverageShapeCount << " shapes\n";
    if (cli.print_coverage)
        std::cout << report.coverage.report();

    if (!cli.json_path.empty()) {
        try {
            writeJson(cli.json_path, report);
        } catch (const keq::support::Error &err) {
            std::cerr << "keq-conformance: " << err.what() << "\n";
            return 65;
        }
    }

    bool ok = report.allOk();
    if (cli.require_coverage && !report.coverage.complete()) {
        ok = false;
        std::cout << "COVERAGE GAP:\n";
        for (keq::llvmir::Opcode op :
             report.coverage.uncoveredOpcodes())
            std::cout << "  opcode " << keq::llvmir::opcodeName(op)
                      << " uncovered\n";
        for (keq::llvmir::ICmpPred pred :
             report.coverage.uncoveredPreds())
            std::cout << "  icmp predicate "
                      << keq::llvmir::icmpPredName(pred)
                      << " uncovered\n";
        for (keq::CoverageShape shape :
             report.coverage.uncoveredShapes())
            std::cout << "  shape " << keq::coverageShapeName(shape)
                      << " uncovered\n";
    }
    std::cout << (ok ? "CONFORMANCE OK" : "CONFORMANCE FAILED") << " ("
              << report.cases.size() << " files, " << report.cellsPerCase
              << " cells, " << report.seconds << "s)\n";
    return ok ? 0 : 1;
}
