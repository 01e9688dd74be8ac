/**
 * @file
 * Cross-configuration parity over the conformance corpus: the same
 * corpus file validated through the sandboxed stack and the in-process
 * stack (and through degenerate/parallel execution shapes) must yield
 * byte-identical `--stats-json` outcome sections and byte-identical
 * canonical summaries. This is the matrix-consistency contract of
 * DESIGN.md §12, pinned per-family so a regression names the corpus
 * family that diverged instead of an 8-cell aggregate.
 *
 * The corpus directory and the worker binary are baked in at compile
 * time (KEQ_CORPUS_DIR, KEQ_WORKER_BIN), mirroring the sandbox suite.
 */

#include <gtest/gtest.h>

#include "src/conformance/corpus.h"
#include "src/conformance/runner.h"

namespace keq::conformance {
namespace {

const CorpusCase &
corpusCase(const std::string &name)
{
    static const std::vector<CorpusCase> cases =
        loadCorpusDir(KEQ_CORPUS_DIR);
    for (const CorpusCase &corpus_case : cases)
        if (corpus_case.name == name)
            return corpus_case;
    throw std::runtime_error("corpus file missing: " + name);
}

RunnerOptions
runnerOptions()
{
    RunnerOptions options;
    options.workerPath = KEQ_WORKER_BIN;
    return options;
}

/**
 * One corpus family per parameter; the pretty test name is the corpus
 * file name, so a failure reads "SandboxMatchesInProcess/gep_nested".
 */
class ConformanceParityTest : public ::testing::TestWithParam<const char *>
{
};

TEST_P(ConformanceParityTest, SandboxMatchesInProcess)
{
    const CorpusCase &corpus_case = corpusCase(GetParam());
    RunnerOptions options = runnerOptions();
    MatrixCell in_process{false, true, 1};
    MatrixCell sandboxed{true, true, 1};

    driver::ModuleReport reference =
        runCase(corpus_case, in_process, options);
    bool degraded = false;
    driver::ModuleReport sandbox_report =
        runCase(corpus_case, sandboxed, options, &degraded);

    // The worker binary is a build dependency of this test: a degraded
    // sandbox cell here means the parity claim was never exercised.
    EXPECT_FALSE(degraded) << "sandbox fell back to in-process solving";
    EXPECT_EQ(outcomeSectionJson(reference),
              outcomeSectionJson(sandbox_report));
    EXPECT_EQ(reference.canonicalSummary(),
              sandbox_report.canonicalSummary());
    EXPECT_TRUE(matchesExpect(reference, corpus_case.expect));
    EXPECT_TRUE(matchesExpect(sandbox_report, corpus_case.expect));
}

TEST_P(ConformanceParityTest, ParallelUnoptimizedMatchesReference)
{
    const CorpusCase &corpus_case = corpusCase(GetParam());
    RunnerOptions options = runnerOptions();
    MatrixCell reference_cell{false, true, 1};
    MatrixCell stripped{false, false, 4};

    driver::ModuleReport reference =
        runCase(corpus_case, reference_cell, options);
    driver::ModuleReport stripped_report =
        runCase(corpus_case, stripped, options);

    EXPECT_EQ(outcomeSectionJson(reference),
              outcomeSectionJson(stripped_report));
    EXPECT_EQ(reference.canonicalSummary(),
              stripped_report.canonicalSummary());
}

// The families this PR adds to the corpus: aggregate GEPs, select
// chains, phi webs, narrow memory, division trap edges, the two
// reintroduced Section 5.2 miscompiles, and the unsupported fragments.
INSTANTIATE_TEST_SUITE_P(
    NewCorpusFamilies, ConformanceParityTest,
    ::testing::Values("gep_struct", "gep_nested", "gep_deep_nest",
                      "select_chain", "select_narrow", "phi_web",
                      "mem_narrow_i1", "div_sdiv_minus_one",
                      "div_register", "icmp_narrow_widths",
                      "bug_waw_store_merge", "bug_load_widening",
                      "gap_div64", "gap_sext_i1"),
    [](const ::testing::TestParamInfo<const char *> &info) {
        return std::string(info.param);
    });

} // namespace
} // namespace keq::conformance
