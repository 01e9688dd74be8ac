#include "src/driver/checkpoint.h"

#include <cstdio>
#include <sstream>

#include "src/support/diagnostics.h"
#include "src/support/strings.h"

namespace keq::driver {

namespace {

constexpr size_t kVerdictFields = 16;

} // namespace

std::string
serializeFunctionReport(const FunctionReport &report)
{
    std::ostringstream os;
    os << "verdict"
       << '\t' << support::escapeLine(report.function)
       << '\t' << static_cast<unsigned>(report.outcome)
       << '\t' << static_cast<unsigned>(report.verdict.kind)
       << '\t' << failureKindName(report.verdict.failure)
       << '\t' << (report.verdict.usedRefinementFallback ? 1 : 0)
       << '\t' << report.llvmInstructions
       << '\t' << report.x86Instructions
       << '\t' << report.syncPointCount
       << '\t' << report.specTextSize
       << '\t' << report.verdict.stats.solverQueries
       << '\t' << report.verdict.stats.pointsChecked
       << '\t' << report.verdict.stats.symbolicSteps
       << '\t' << report.verdict.stats.pairsExamined
       << '\t' << support::escapeLine(report.verdict.reason)
       << '\t' << support::escapeLine(report.detail);
    return os.str();
}

bool
deserializeFunctionReport(const std::string &payload,
                          FunctionReport &report)
{
    // Fields are individually escaped, so raw tabs only separate them.
    std::vector<std::string> fields = support::split(payload, '\t');
    if (fields.size() != kVerdictFields || fields[0] != "verdict")
        return false;

    FunctionReport out;
    if (!support::unescapeLine(fields[1], out.function))
        return false;
    uint64_t outcome = 0;
    uint64_t kind = 0;
    uint64_t refine = 0;
    if (!support::parseU64(fields[2], outcome) || outcome > 4 ||
        !support::parseU64(fields[3], kind) || kind > 4 ||
        !failureKindFromName(fields[4].c_str(), out.verdict.failure) ||
        !support::parseU64(fields[5], refine) || refine > 1) {
        return false;
    }
    out.outcome = static_cast<Outcome>(outcome);
    out.verdict.kind = static_cast<checker::VerdictKind>(kind);
    out.verdict.usedRefinementFallback = refine != 0;

    uint64_t llvm = 0, x86 = 0, sync = 0, spec = 0;
    if (!support::parseU64(fields[6], llvm) ||
        !support::parseU64(fields[7], x86) ||
        !support::parseU64(fields[8], sync) ||
        !support::parseU64(fields[9], spec) ||
        !support::parseU64(fields[10], out.verdict.stats.solverQueries) ||
        !support::parseU64(fields[11], out.verdict.stats.pointsChecked) ||
        !support::parseU64(fields[12], out.verdict.stats.symbolicSteps) ||
        !support::parseU64(fields[13], out.verdict.stats.pairsExamined)) {
        return false;
    }
    out.llvmInstructions = static_cast<size_t>(llvm);
    out.x86Instructions = static_cast<size_t>(x86);
    out.syncPointCount = static_cast<size_t>(sync);
    out.specTextSize = static_cast<size_t>(spec);

    if (!support::unescapeLine(fields[14], out.verdict.reason) ||
        !support::unescapeLine(fields[15], out.detail)) {
        return false;
    }
    report = std::move(out);
    return true;
}

CheckpointJournal::Load
CheckpointJournal::load(const std::string &path,
                        const std::string &fingerprint)
{
    Load result;
    support::JournalLoad journal = support::loadJournal(path, kKind);
    if (!journal.ok) {
        result.ok = false;
        result.error = journal.error;
        return result;
    }
    result.truncatedRecords = journal.truncatedRecords;

    for (size_t i = 0; i < journal.records.size(); ++i) {
        const std::string &payload = journal.records[i];
        if (i == 0 && payload.rfind("meta\t", 0) == 0) {
            std::string recorded;
            if (!support::unescapeLine(payload.substr(5), recorded)) {
                result.ok = false;
                result.error = "checkpoint '" + path +
                               "': corrupt meta record";
                return result;
            }
            if (recorded != fingerprint) {
                result.ok = false;
                result.error =
                    "checkpoint '" + path +
                    "' was written for a different module "
                    "(fingerprint mismatch); refusing to resume";
                return result;
            }
            result.hasMeta = true;
            continue;
        }
        FunctionReport report;
        if (!deserializeFunctionReport(payload, report)) {
            // An intact-checksum record that fails to parse means the
            // schema changed underneath the journal; treat everything
            // from here on as untrusted, like a torn tail.
            result.truncatedRecords = journal.truncatedRecords +
                                      (journal.records.size() - i);
            break;
        }
        // Later records win: a rerun may legitimately re-decide a
        // function (e.g. one whose verdict was recomputed after a
        // cancelled run).
        result.decided[report.function] = std::move(report);
    }
    if (!result.decided.empty() && !result.hasMeta) {
        result.ok = false;
        result.error = "checkpoint '" + path +
                       "' carries verdicts but no module fingerprint; "
                       "refusing to resume";
        return result;
    }
    return result;
}

CheckpointJournal::CheckpointJournal(std::string path,
                                     std::string fingerprint,
                                     bool metaPresent,
                                     support::FsyncPolicy fsync)
    : writer_(std::move(path), kKind, fsync),
      fingerprint_(std::move(fingerprint)), metaWritten_(metaPresent)
{}

void
CheckpointJournal::record(const FunctionReport &report)
{
    if (report.verdict.failure == FailureKind::Cancelled)
        return; // cancellation is a property of the run, not the fn
    {
        std::lock_guard<std::mutex> lock(metaMutex_);
        if (!metaWritten_) {
            writer_.append("meta\t" + support::escapeLine(fingerprint_));
            metaWritten_ = true;
        }
    }
    writer_.append(serializeFunctionReport(report));
}

std::string
moduleFingerprint(const llvmir::Module &module)
{
    std::ostringstream os;
    for (const llvmir::Function &fn : module.functions) {
        if (fn.isDeclaration())
            continue;
        os << fn.name << ':' << fn.instructionCount() << ';';
    }
    std::string summary = os.str();
    char buffer[32];
    std::snprintf(buffer, sizeof(buffer), "%016llx",
                  static_cast<unsigned long long>(
                      support::fnv1a64(summary)));
    return std::string(buffer);
}

} // namespace keq::driver
