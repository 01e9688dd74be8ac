/** @file Checkpoint layer: FunctionReport serialization is an exact
 *  (canonical-summary-preserving) round-trip, the journal restores
 *  decided verdicts, rejects foreign fingerprints, tolerates torn
 *  tails, and never journals Cancelled verdicts. */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <unistd.h>

#include "src/driver/checkpoint.h"
#include "src/llvmir/parser.h"
#include "src/support/journal.h"
#include "src/support/strings.h"

namespace keq::driver {
namespace {

struct TempFile
{
    std::string path;

    explicit TempFile(const std::string &stem)
        : path((std::filesystem::temp_directory_path() /
                ("keq-checkpoint-test-" + stem + "-" +
                 std::to_string(::getpid()) + ".log"))
                   .string())
    {
        std::remove(path.c_str());
    }

    ~TempFile() { std::remove(path.c_str()); }

    std::string
    read() const
    {
        std::ifstream in(path, std::ios::binary);
        return std::string(std::istreambuf_iterator<char>(in), {});
    }

    void
    write(const std::string &bytes) const
    {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out << bytes;
    }
};

FunctionReport
sampleReport(const std::string &name)
{
    FunctionReport report;
    report.function = name;
    report.outcome = Outcome::Succeeded;
    report.verdict.kind = checker::VerdictKind::Equivalent;
    report.verdict.stats.solverQueries = 7;
    report.verdict.stats.pointsChecked = 3;
    report.verdict.stats.symbolicSteps = 41;
    report.verdict.stats.pairsExamined = 5;
    report.llvmInstructions = 12;
    report.x86Instructions = 19;
    report.syncPointCount = 3;
    report.specTextSize = 222;
    report.detail = "all obligations discharged";
    return report;
}

TEST(CheckpointTest, SerializationRoundTripsEveryRenderedField)
{
    FunctionReport report = sampleReport("fn_a");
    FunctionReport back;
    ASSERT_TRUE(
        deserializeFunctionReport(serializeFunctionReport(report), back));
    EXPECT_EQ(back.canonicalSummary(), report.canonicalSummary());
    EXPECT_EQ(back.function, "fn_a");
    EXPECT_EQ(back.outcome, Outcome::Succeeded);
    EXPECT_EQ(back.verdict.stats.solverQueries, 7u);
    EXPECT_EQ(back.specTextSize, 222u);
}

TEST(CheckpointTest, SerializationSurvivesHostileStrings)
{
    FunctionReport report = sampleReport("fn\tweird\nname\\");
    report.outcome = Outcome::Other;
    report.verdict.kind = checker::VerdictKind::NotValidated;
    report.verdict.reason = "reason with\ttabs\nand newlines";
    report.detail = "detail\\with\\backslashes\r\n";
    FunctionReport back;
    ASSERT_TRUE(
        deserializeFunctionReport(serializeFunctionReport(report), back));
    EXPECT_EQ(back.function, report.function);
    EXPECT_EQ(back.verdict.reason, report.verdict.reason);
    EXPECT_EQ(back.detail, report.detail);
    EXPECT_EQ(back.canonicalSummary(), report.canonicalSummary());
}

TEST(CheckpointTest, MalformedPayloadsAreRejectedNotFatal)
{
    FunctionReport out;
    EXPECT_FALSE(deserializeFunctionReport("", out));
    EXPECT_FALSE(deserializeFunctionReport("not-a-verdict\tx", out));
    std::string good = serializeFunctionReport(sampleReport("f"));
    EXPECT_FALSE(
        deserializeFunctionReport(good.substr(0, good.size() / 2), out));
    EXPECT_FALSE(deserializeFunctionReport(good + "\textra-field", out));
}

TEST(CheckpointTest, JournalRestoresDecidedVerdicts)
{
    TempFile file("restore");
    {
        CheckpointJournal journal(file.path, "fp-1", false);
        journal.record(sampleReport("one"));
        journal.record(sampleReport("two"));
    }
    CheckpointJournal::Load load =
        CheckpointJournal::load(file.path, "fp-1");
    ASSERT_TRUE(load.ok) << load.error;
    EXPECT_TRUE(load.hasMeta);
    ASSERT_EQ(load.decided.size(), 2u);
    EXPECT_EQ(load.decided.at("one").canonicalSummary(),
              sampleReport("one").canonicalSummary());
}

TEST(CheckpointTest, ForeignFingerprintIsRejected)
{
    TempFile file("fingerprint");
    {
        CheckpointJournal journal(file.path, "fp-module-a", false);
        journal.record(sampleReport("one"));
    }
    CheckpointJournal::Load load =
        CheckpointJournal::load(file.path, "fp-module-b");
    EXPECT_FALSE(load.ok);
    EXPECT_NE(load.error.find("fingerprint"), std::string::npos)
        << load.error;
}

TEST(CheckpointTest, CancelledVerdictsAreNeverJournaled)
{
    TempFile file("cancelled");
    {
        CheckpointJournal journal(file.path, "fp-1", false);
        FunctionReport cancelled = sampleReport("interrupted");
        cancelled.outcome = Outcome::Timeout;
        cancelled.verdict.kind = checker::VerdictKind::Timeout;
        cancelled.verdict.failure = FailureKind::Cancelled;
        journal.record(cancelled);
        journal.record(sampleReport("finished"));
    }
    CheckpointJournal::Load load =
        CheckpointJournal::load(file.path, "fp-1");
    ASSERT_TRUE(load.ok) << load.error;
    EXPECT_EQ(load.decided.count("interrupted"), 0u)
        << "cancellation belongs to the run, not the function";
    EXPECT_EQ(load.decided.count("finished"), 1u);
}

TEST(CheckpointTest, TornTailDropsOnlyTheLastRecord)
{
    TempFile file("torn");
    {
        CheckpointJournal journal(file.path, "fp-1", false);
        journal.record(sampleReport("intact"));
        journal.record(sampleReport("doomed"));
    }
    std::string bytes = file.read();
    file.write(bytes.substr(0, bytes.size() - 3)); // SIGKILL mid-append

    CheckpointJournal::Load load =
        CheckpointJournal::load(file.path, "fp-1");
    ASSERT_TRUE(load.ok) << load.error;
    EXPECT_EQ(load.decided.count("intact"), 1u);
    EXPECT_EQ(load.decided.count("doomed"), 0u);
    EXPECT_EQ(load.truncatedRecords, 1u);
}

TEST(CheckpointTest, ReopeningAJournalAppendsWithoutASecondMeta)
{
    TempFile file("reopen");
    {
        CheckpointJournal journal(file.path, "fp-1", false);
        journal.record(sampleReport("first"));
    }
    {
        CheckpointJournal::Load load =
            CheckpointJournal::load(file.path, "fp-1");
        ASSERT_TRUE(load.ok);
        CheckpointJournal journal(file.path, "fp-1", load.hasMeta);
        journal.record(sampleReport("second"));
    }
    CheckpointJournal::Load load =
        CheckpointJournal::load(file.path, "fp-1");
    ASSERT_TRUE(load.ok) << load.error;
    EXPECT_EQ(load.decided.size(), 2u);
}

TEST(CheckpointTest, LaterRecordsWinOnRerun)
{
    TempFile file("rerun");
    {
        CheckpointJournal journal(file.path, "fp-1", false);
        journal.record(sampleReport("f"));
        FunctionReport redecided = sampleReport("f");
        redecided.detail = "second decision";
        journal.record(redecided);
    }
    CheckpointJournal::Load load =
        CheckpointJournal::load(file.path, "fp-1");
    ASSERT_TRUE(load.ok) << load.error;
    EXPECT_EQ(load.decided.at("f").detail, "second decision");
}

TEST(CheckpointTest, OutOfRangeCountIsSchemaDriftNotAVerdict)
{
    // A checksum-valid record whose count field reads -1 (which a
    // strtoull parser wraps to 2^64-1) must not restore a function with
    // llvmInstructions = SIZE_MAX: it is dropped like a torn tail.
    TempFile file("negative-count");
    {
        CheckpointJournal journal(file.path, "fp-1", false);
        journal.record(sampleReport("intact"));
    }
    std::vector<std::string> fields =
        support::split(serializeFunctionReport(sampleReport("drift")),
                       '\t');
    fields[6] = "-1"; // llvmInstructions
    {
        support::JournalWriter writer(file.path,
                                      CheckpointJournal::kKind);
        writer.append(support::join(fields, "\t"));
    }

    CheckpointJournal::Load load =
        CheckpointJournal::load(file.path, "fp-1");
    ASSERT_TRUE(load.ok) << load.error;
    EXPECT_EQ(load.decided.count("intact"), 1u);
    EXPECT_EQ(load.decided.count("drift"), 0u)
        << "restored llvmInstructions = "
        << load.decided.at("drift").llvmInstructions;
    EXPECT_EQ(load.truncatedRecords, 1u);
}

TEST(CheckpointTest, MissingFileIsAFreshCampaign)
{
    CheckpointJournal::Load load =
        CheckpointJournal::load("/nonexistent/keq-checkpoint", "fp");
    EXPECT_TRUE(load.ok);
    EXPECT_TRUE(load.decided.empty());
    EXPECT_FALSE(load.hasMeta);
}

TEST(CheckpointTest, ModuleFingerprintTracksTheFunctionSet)
{
    llvmir::Module one = llvmir::parseModule(R"(
define i32 @f(i32 %a) {
entry:
  %r = add i32 %a, 1
  ret i32 %r
}
)");
    llvmir::Module same = llvmir::parseModule(R"(
define i32 @f(i32 %a) {
entry:
  %r = add i32 %a, 1
  ret i32 %r
}
)");
    llvmir::Module renamed = llvmir::parseModule(R"(
define i32 @g(i32 %a) {
entry:
  %r = add i32 %a, 1
  ret i32 %r
}
)");
    llvmir::Module grown = llvmir::parseModule(R"(
define i32 @f(i32 %a) {
entry:
  %t = add i32 %a, 1
  %r = add i32 %t, 1
  ret i32 %r
}
)");
    EXPECT_EQ(moduleFingerprint(one), moduleFingerprint(same));
    EXPECT_NE(moduleFingerprint(one), moduleFingerprint(renamed));
    EXPECT_NE(moduleFingerprint(one), moduleFingerprint(grown));
}

} // namespace
} // namespace keq::driver
