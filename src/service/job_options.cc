#include "src/service/job_options.h"

#include <cstdio>
#include <string>

#include "src/support/journal.h"

namespace keq::service {

using smt::wire::JobOptionsFrame;

JobOptionsFrame
encodeJobOptions(const driver::PipelineOptions &options)
{
    JobOptionsFrame frame;
    frame.mergeStores = options.isel.mergeStores ? 1 : 0;
    frame.foldExtLoad = options.isel.foldExtLoad ? 1 : 0;
    switch (options.isel.bug) {
    case isel::Bug::None:
        frame.bug = 0;
        break;
    case isel::Bug::StoreMergeWAW:
        frame.bug = 1;
        break;
    case isel::Bug::LoadWidening:
        frame.bug = 2;
        break;
    }
    frame.refinementOnly = options.checker.refinementOnly ? 1 : 0;
    frame.positiveForm = options.checker.positiveFormOpt ? 1 : 0;
    frame.crudeLiveness =
        options.vc.precision == vcgen::LivenessPrecision::BlockLocal
            ? 1
            : 0;
    frame.smtTimeoutMs = options.checker.solverTimeoutMs;
    frame.wallBudgetSeconds = options.checker.wallBudgetSeconds;
    frame.specSizeBudget = options.specSizeBudget;
    return frame;
}

driver::PipelineOptions
decodeJobOptions(const JobOptionsFrame &frame)
{
    driver::PipelineOptions options;
    options.isel.mergeStores = frame.mergeStores != 0;
    options.isel.foldExtLoad = frame.foldExtLoad != 0;
    options.isel.bug = frame.bug == 1   ? isel::Bug::StoreMergeWAW
                       : frame.bug == 2 ? isel::Bug::LoadWidening
                                        : isel::Bug::None;
    options.checker.refinementOnly = frame.refinementOnly != 0;
    options.checker.positiveFormOpt = frame.positiveForm != 0;
    options.vc.precision = frame.crudeLiveness != 0
                               ? vcgen::LivenessPrecision::BlockLocal
                               : vcgen::LivenessPrecision::Full;
    options.checker.solverTimeoutMs = frame.smtTimeoutMs;
    options.checker.wallBudgetSeconds = frame.wallBudgetSeconds;
    options.specSizeBudget =
        static_cast<size_t>(frame.specSizeBudget);
    return options;
}

std::string
jobOptionsKey(const JobOptionsFrame &frame)
{
    char buf[128];
    std::snprintf(buf, sizeof buf, "%u%u%u%u%u%u|%u|%.17g|%llu",
                  frame.mergeStores, frame.foldExtLoad, frame.bug,
                  frame.refinementOnly, frame.positiveForm,
                  frame.crudeLiveness, frame.smtTimeoutMs,
                  frame.wallBudgetSeconds,
                  static_cast<unsigned long long>(
                      frame.specSizeBudget));
    return buf;
}

namespace {

void
fnv1aUpdate(uint64_t &hash, const std::string &bytes)
{
    for (unsigned char c : bytes) {
        hash ^= c;
        hash *= 1099511628211ULL;
    }
    // Field separator: keeps ("ab","c") distinct from ("a","bc").
    hash ^= 0xff;
    hash *= 1099511628211ULL;
}

} // namespace

uint64_t
jobFingerprint(uint64_t moduleHash, uint64_t moduleLen,
               const std::string &function,
               const smt::wire::JobOptionsFrame &options)
{
    uint64_t hash = 14695981039346656037ULL; // FNV-1a offset basis
    fnv1aUpdate(hash, jobOptionsKey(options));
    fnv1aUpdate(hash, function);
    fnv1aUpdate(hash, std::to_string(moduleHash) + ':' +
                          std::to_string(moduleLen));
    return hash == 0 ? 1 : hash;
}

uint64_t
jobFingerprint(const std::string &moduleText,
               const std::string &function,
               const smt::wire::JobOptionsFrame &options)
{
    return jobFingerprint(support::fnv1a64(moduleText), moduleText.size(),
                          function, options);
}

} // namespace keq::service
