/** @file End-to-end pipeline tests over modules and the corpus. */

#include <gtest/gtest.h>

#include "src/driver/corpus.h"
#include "src/driver/pipeline.h"
#include "src/isel/isel.h"
#include "src/llvmir/parser.h"

namespace keq::driver {
namespace {

TEST(PipelineTest, ValidatesSourceText)
{
    ModuleReport report = validateSource(R"(
define i32 @one() {
entry:
  ret i32 1
}
define i32 @double(i32 %x) {
entry:
  %r = add i32 %x, %x
  ret i32 %r
}
)",
                                         {});
    ASSERT_EQ(report.functions.size(), 2u);
    EXPECT_EQ(report.countOutcome(Outcome::Succeeded), 2u);
}

TEST(PipelineTest, UnsupportedFunctionsAreCategorized)
{
    ModuleReport report = validateSource(R"(
define i64 @bad(i64 %a, i64 %b) {
entry:
  %q = udiv i64 %a, %b
  ret i64 %q
}
define i32 @good(i32 %a) {
entry:
  ret i32 %a
}
)",
                                         {});
    EXPECT_EQ(report.countOutcome(Outcome::Unsupported), 1u);
    EXPECT_EQ(report.countOutcome(Outcome::Succeeded), 1u);
    // The table footer reports the exclusion, like the paper's 4732 of
    // 5572 supported functions.
    std::string table = report.renderTable();
    EXPECT_NE(table.find("excluded"), std::string::npos);
    EXPECT_NE(table.find("Total                        | 1"),
              std::string::npos);
}

TEST(PipelineTest, ReportCarriesSizeMetrics)
{
    ModuleReport report = validateSource(R"(
define i32 @f(i32 %a) {
entry:
  %1 = add i32 %a, 1
  %2 = mul i32 %1, 2
  ret i32 %2
}
)",
                                         {});
    const FunctionReport &fn = report.functions[0];
    EXPECT_EQ(fn.llvmInstructions, 3u);
    EXPECT_GT(fn.x86Instructions, 3u);
    EXPECT_GE(fn.syncPointCount, 2u);
    EXPECT_GT(fn.specTextSize, 0u);
    EXPECT_GT(fn.seconds, 0.0);
}

TEST(PipelineTest, SmallCorpusFullyValidates)
{
    CorpusOptions copts;
    copts.functionCount = 25;
    copts.seed = 2024;
    ModuleReport report =
        validateSource(generateCorpusSource(copts), {});
    EXPECT_EQ(report.countOutcome(Outcome::Succeeded), 25u)
        << report.renderTable();
}

TEST(PipelineTest, BuggyIselRejectsAcrossCorpusMemoryFunctions)
{
    // With the WAW bug enabled module-wide, functions containing
    // mergeable store pairs must not validate better than with the
    // correct pass; crucially, nothing may *falsely* validate: the
    // success set with the bug must be a subset of the success set
    // without it on memory-heavy inputs.
    const char *source = R"(
@g = external global [8 x i8]
define void @two_stores() {
entry:
  %p0 = getelementptr [8 x i8], [8 x i8]* @g, i64 0, i64 0
  %p0w = bitcast i8* %p0 to i16*
  store i16 1, i16* %p0w
  %p2 = getelementptr [8 x i8], [8 x i8]* @g, i64 0, i64 2
  %p2w = bitcast i8* %p2 to i16*
  store i16 2, i16* %p2w
  ret void
}
define void @waw() {
entry:
  %p2 = getelementptr [8 x i8], [8 x i8]* @g, i64 0, i64 2
  %p2w = bitcast i8* %p2 to i16*
  store i16 0, i16* %p2w
  %p3 = getelementptr [8 x i8], [8 x i8]* @g, i64 0, i64 3
  %p3w = bitcast i8* %p3 to i16*
  store i16 2, i16* %p3w
  %p0 = getelementptr [8 x i8], [8 x i8]* @g, i64 0, i64 0
  %p0w = bitcast i8* %p0 to i16*
  store i16 1, i16* %p0w
  ret void
}
)";
    PipelineOptions buggy;
    buggy.isel.mergeStores = true;
    buggy.isel.bug = isel::Bug::StoreMergeWAW;
    ModuleReport report = validateSource(source, buggy);
    // @two_stores merges safely even with the buggy placement (no
    // intervening store), so it still validates; @waw must be rejected.
    ASSERT_EQ(report.functions.size(), 2u);
    EXPECT_EQ(report.functions[0].outcome, Outcome::Succeeded)
        << report.functions[0].detail;
    EXPECT_EQ(report.functions[1].outcome, Outcome::Other)
        << report.functions[1].detail;
}

TEST(PipelineTest, OutcomeNamesMatchFigure6Rows)
{
    EXPECT_STREQ(outcomeName(Outcome::Succeeded), "Succeeded");
    EXPECT_STREQ(outcomeName(Outcome::Timeout),
                 "Failed due to timeout");
    EXPECT_STREQ(outcomeName(Outcome::OutOfMemory),
                 "Failed due to out-of-memory");
    EXPECT_STREQ(outcomeName(Outcome::Other), "Other");
}

TEST(PipelineTest, EntryPointsWithoutExecutionOptionsUseIncrementalZ3)
{
    // The free entry points take no ExecutionOptions; they must pick
    // the backend a default ExecutionOptions picks, IncrementalZ3Solver:
    // every query that reaches it counts as a cold or an incremental
    // solve, and queries sharing a prefix reuse it.
    llvmir::Module module = llvmir::parseModule(R"(
@grid = external global [16 x i8]
define i8 @fill(i64 %n, i8 %x) {
entry:
  br label %head
head:
  %i = phi i64 [ 0, %entry ], [ %inext, %body ]
  %done = icmp uge i64 %i, %n
  br i1 %done, label %exit, label %body
body:
  %j = and i64 %i, 15
  %p = getelementptr inbounds [16 x i8], [16 x i8]* @grid, i64 0, i64 %j
  store i8 %x, i8* %p
  %inext = add i64 %i, 1
  br label %head
exit:
  %k = and i64 %n, 15
  %q = getelementptr inbounds [16 x i8], [16 x i8]* @grid, i64 0, i64 %k
  %v = load i8, i8* %q
  ret i8 %v
}
)");
    const llvmir::Function &fn = module.functions.back();
    PipelineOptions options;
    isel::FunctionHints hints;
    vx86::MFunction mfn =
        isel::lowerFunction(module, fn, options.isel, hints);
    std::vector<std::pair<std::string, FunctionReport>> reports;
    reports.emplace_back("validateFunction",
                         validateFunction(module, fn, options));
    reports.emplace_back(
        "validateFunctionPair",
        validateFunctionPair(module, fn, mfn, hints, options));
    reports.emplace_back("validateRegAlloc",
                         validateRegAlloc(module, fn, options));
    for (const auto &[entry, report] : reports) {
        SCOPED_TRACE(entry);
        EXPECT_EQ(report.outcome, Outcome::Succeeded) << report.detail;
        EXPECT_GE(report.syncPointCount, 3u);
        const smt::SolverStats &stats = report.verdict.stats.solverStats;
        EXPECT_GT(stats.queries, 0u);
        EXPECT_EQ(stats.coldSolves + stats.incrementalSolves,
                  stats.queries);
        EXPECT_GT(stats.incrementalSolves, 0u)
            << "a cold Z3Solver never reuses a prefix";
    }
}

} // namespace
} // namespace keq::driver
