#include "src/service/job_options.h"

#include <cstdio>
#include <string>

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

} // namespace keq::service
