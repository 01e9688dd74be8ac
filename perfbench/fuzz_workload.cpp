/**
 * @file
 * fuzz-campaign: fuzz::runCampaign{seed 1, 60 iterations, jobs 2}, the
 * cold smt::Z3Solver path of validateFunctionPair plus both concrete
 * interpreters, the generator and the mutation catalogue. Set-up is the
 * campaign's calibration phase (every catalogue entry on its exemplar).
 *
 * The traced run cannot see inside runCampaign, so it replays the same
 * iterations from the public pieces (generateModuleSource, parseModule,
 * lowerFunction, compareExecutions, validateFunctionPair, lowerMutant)
 * with spans around each call, and checks that the replay reaches the
 * campaign's own counts.
 */

#include <algorithm>
#include <atomic>
#include <map>
#include <optional>
#include <stdexcept>
#include <thread>

#include "common.h"
#include "src/fuzz/campaign.h"
#include "src/llvmir/parser.h"
#include "src/llvmir/verifier.h"

namespace perfbench {

namespace fuzz = keq::fuzz;
using keq::driver::FunctionReport;
using keq::support::Rng;

namespace {

constexpr int kSetupRepeats = 21;
constexpr unsigned kJobs = 2;
constexpr size_t kIterations = 60;
/** Salt of the mutant-oracle stream (src/fuzz/campaign.cc). */
constexpr uint64_t kMutantOracleSalt = 0x5851f42d4c957f2dull;

fuzz::CampaignOptions
campaignOptions(const RunOptions &options)
{
    fuzz::CampaignOptions campaign;
    campaign.seed = options.inputSeed != 0 ? options.inputSeed : 1;
    campaign.jobs = kJobs;
    campaign.iterations = kIterations;
    campaign.calibrate = false;
    return campaign;
}

/** Counts the replay must reproduce (all deterministic). */
struct ReplayCounts
{
    uint64_t programs = 0;
    uint64_t baselineValidated = 0;
    uint64_t applied = 0;
    uint64_t killed = 0;
    uint64_t neutral = 0;
    uint64_t benign = 0;
    uint64_t bugs = 0;
    CheckCounts checks;
};

/** crossCheck's reconciliation of the checker and the executions. */
fuzz::OracleVerdict
reconcile(const FunctionReport &report, fuzz::ExecAgreement execution)
{
    switch (report.outcome) {
    case keq::driver::Outcome::Succeeded:
        return execution == fuzz::ExecAgreement::Diverged
                   ? fuzz::OracleVerdict::SoundnessBug
                   : fuzz::OracleVerdict::Agree;
    case keq::driver::Outcome::Other:
        return fuzz::OracleVerdict::Killed;
    default:
        return fuzz::OracleVerdict::Inconclusive;
    }
}

/** One checker-vs-executions cross-check, each call under its span. */
fuzz::OracleVerdict
crossCheck(const keq::llvmir::Module &module, const keq::llvmir::Function &fn,
           const keq::vx86::MFunction &mfn,
           const keq::isel::FunctionHints &hints, Rng rng,
           const fuzz::OracleOptions &oracle, Trace::Lane &lane,
           uint64_t request, ReplayCounts &counts)
{
    fuzz::OracleResult result;
    fuzz::ExecAgreement execution;
    {
        ScopedSpan span(&lane, "fuzz.compareExecutions", request);
        execution =
            fuzz::compareExecutions(module, fn, mfn, rng, oracle, result);
    }
    {
        // The same sync-point generation validateFunctionPair runs
        // internally, timed from outside as the VC layer's estimate.
        ScopedSpan span(&lane, "vcgen.generateSyncPoints", request);
        keq::vcgen::generateSyncPoints(fn, mfn, hints, oracle.pipeline.vc);
    }
    FunctionReport report;
    {
        ScopedSpan span(&lane, "driver.validateFunctionPair", request);
        report = keq::driver::validateFunctionPair(module, fn, mfn, hints,
                                                   oracle.pipeline);
    }
    counts.checks.add(report);
    return reconcile(report, execution);
}

/** runIteration (src/fuzz/campaign.cc) rebuilt from public calls. */
void
replayIteration(const fuzz::CampaignOptions &options, size_t index,
                const std::vector<const fuzz::Mutation *> &entries,
                Trace::Lane &lane, ReplayCounts &counts)
{
    ScopedSpan iteration(&lane, "fuzz.iteration", index);
    Rng iter = Rng::stream(options.seed, index);
    Rng genRng = iter.split();
    Rng selectRng = iter.split();
    uint64_t mutSeed = iter.next();
    uint64_t oracleSeed = iter.next();

    std::string source;
    {
        ScopedSpan span(&lane, "fuzz.generateModuleSource", index);
        source = fuzz::generateModuleSource(genRng, options.generator);
    }
    keq::llvmir::Module module;
    {
        ScopedSpan span(&lane, "llvmir.parseModule", index);
        module = keq::llvmir::parseModule(source);
        keq::llvmir::verifyModuleOrThrow(module);
    }
    const keq::llvmir::Function *fn = nullptr;
    for (const keq::llvmir::Function &candidate : module.functions)
        if (!candidate.isDeclaration() && fn == nullptr)
            fn = &candidate;
    counts.programs++;

    keq::isel::FunctionHints hints;
    keq::vx86::MFunction clean;
    {
        ScopedSpan span(&lane, "isel.lowerFunction", index);
        clean = keq::isel::lowerFunction(module, *fn, {}, hints);
    }
    fuzz::OracleVerdict baseline =
        crossCheck(module, *fn, clean, hints, Rng(oracleSeed),
                   options.oracle, lane, index, counts);
    if (baseline != fuzz::OracleVerdict::Agree)
        return;
    counts.baselineValidated++;

    const fuzz::Mutation &mutation =
        *entries[selectRng.below(entries.size())];
    Rng mutRng(mutSeed);
    fuzz::MutantLowering mutant;
    {
        ScopedSpan span(&lane, "fuzz.lowerMutant", index);
        mutant = fuzz::lowerMutant(mutation, module, *fn, mutRng);
    }
    if (!mutant.applied)
        return;
    counts.applied++;
    fuzz::OracleVerdict verdict = crossCheck(
        module, *fn, mutant.mfn, mutant.hints,
        Rng(oracleSeed ^ kMutantOracleSalt), options.oracle, lane, index,
        counts);
    if (verdict == fuzz::OracleVerdict::Inconclusive)
        return;
    if (verdict == fuzz::OracleVerdict::SoundnessBug)
        counts.bugs++;
    else if (mutation.expectEquivalent)
        (verdict == fuzz::OracleVerdict::Agree ? counts.benign : counts.bugs)++;
    else if (verdict == fuzz::OracleVerdict::Killed)
        counts.killed++;
    else
        counts.neutral++;
}

/** Checks a campaign's known answers; returns its program count. */
uint64_t
checkCampaign(Result &result, const fuzz::CampaignResult &campaign,
              const char *phase)
{
    const fuzz::CampaignStats &stats = campaign.stats;
    std::string where = std::string(phase) + ": ";
    if (stats.soundnessBugs != 0)
        result.wrong(where + std::to_string(stats.soundnessBugs) +
                     " soundness bugs");
    if (stats.completenessGaps != 0)
        result.wrong(where + std::to_string(stats.completenessGaps) +
                     " completeness gaps");
    if (stats.baselineUnvalidated != 0)
        result.wrong(where + std::to_string(stats.baselineUnvalidated) +
                     " clean lowerings not validated");
    result.failed += stats.inconclusive + stats.unsupported;
    return stats.programsGenerated;
}

} // namespace

Result
runFuzzCampaign(const RunOptions &options)
{
    Result result;
    fuzz::CampaignOptions campaign = campaignOptions(options);

    // Set-up: the calibration phase, which alone guarantees that every
    // miscompile class is killed at least once.
    std::map<std::string, uint64_t> kills;
    for (int i = 0; i < kSetupRepeats; ++i) {
        fuzz::CampaignOptions calibration = campaign;
        calibration.iterations = 0;
        calibration.calibrate = true;
        Clock::time_point start = Clock::now();
        fuzz::CampaignResult calibrated = fuzz::runCampaign(calibration);
        result.setupS.push_back(secondsSince(start));
        checkCampaign(result, calibrated, "calibration");
        kills = calibrated.stats.killsByMutation;
    }

    std::vector<const fuzz::Mutation *> entries;
    for (const fuzz::Mutation &mutation : fuzz::mutationCatalog())
        if (mutation.kind == fuzz::MutationKind::MirRewrite)
            entries.push_back(&mutation);

    std::string summary;
    fuzz::CampaignStats stats;
    Trace trace(kJobs);
    std::vector<LayerReport> layerPasses;
    double untracedWall = 0.0;
    Clock::time_point begin = Clock::now();
    for (size_t pass = 0;
         morePasses(options, pass, secondsSince(begin)); ++pass) {
        bool traced = options.trace && pass > 0;
        resetPeakRss();
        double cpu = cpuSeconds();
        Clock::time_point start = Clock::now();
        if (!traced) {
            fuzz::CampaignResult run = fuzz::runCampaign(campaign);
            double wall = secondsSince(start);
            uint64_t programs = checkCampaign(result, run, "campaign");
            result.attempted += programs;
            result.unitsPerPass = programs;
            if (summary.empty())
                summary = run.canonicalSummary();
            else if (run.canonicalSummary() != summary)
                result.wrong("campaign summary differs between passes");
            stats = run.stats;
            for (const auto &[id, count] : stats.killsByMutation)
                kills[id] += count;
            result.record("fuzz.programs", stats.programsGenerated);
            result.record("fuzz.instructions", stats.generatedInstructions);
            result.record("fuzz.mutants_applied", stats.mutantsApplied);
            result.record("fuzz.mutants_killed", stats.mutantsKilled);
            result.record("fuzz.benign_accepted", stats.benignAccepted);
            if (options.trace) {
                untracedWall = wall;
                continue;
            }
            result.wallS.push_back(wall);
            result.cpuS.push_back(cpuSeconds() - cpu);
            result.rssMb.push_back(peakRssMb());
            continue;
        }

        // Traced replay of the same iterations on kJobs threads.
        Trace::Mark mark = trace.mark();
        std::vector<ReplayCounts> perThread(kJobs);
        std::vector<double> iterationSeconds(kIterations, 0.0);
        std::atomic<size_t> next{0};
        std::vector<std::thread> threads;
        std::vector<std::optional<std::string>> errors(kJobs);
        for (unsigned t = 0; t < kJobs; ++t)
            threads.emplace_back([&, t] {
                try {
                    for (size_t i; (i = next.fetch_add(1)) < kIterations;) {
                        Clock::time_point at = Clock::now();
                        replayIteration(campaign, i, entries,
                                        trace.lane(t), perThread[t]);
                        iterationSeconds[i] = secondsSince(at);
                    }
                } catch (const std::exception &error) {
                    errors[t] = error.what();
                }
            });
        for (std::thread &thread : threads)
            thread.join();
        double wall = secondsSince(start);
        for (const std::optional<std::string> &error : errors)
            if (error)
                throw std::runtime_error("traced replay: " + *error);

        ReplayCounts total;
        for (const ReplayCounts &counts : perThread) {
            total.programs += counts.programs;
            total.baselineValidated += counts.baselineValidated;
            total.applied += counts.applied;
            total.killed += counts.killed;
            total.neutral += counts.neutral;
            total.benign += counts.benign;
            total.bugs += counts.bugs;
            total.checks += counts.checks;
        }
        // The replay must walk the campaign's own path. The campaign
        // counts calibration-free random-phase work only, like the replay.
        if (total.programs != stats.programsGenerated ||
            total.baselineValidated != stats.baselineValidated ||
            total.applied != stats.mutantsApplied ||
            total.killed != stats.mutantsKilled ||
            total.neutral != stats.mutantsSurvivedNeutral ||
            total.benign != stats.benignAccepted || total.bugs != 0)
            result.wrong("traced replay diverged from runCampaign");
        recordCounts(result, total.checks);

        std::map<std::string, Trace::Totals> spans = trace.totals(mark);
        LayerInputs in;
        in.counts = total.checks;
        in.parseSeconds = spans["llvmir.parseModule"].seconds;
        in.parseInPass = true;
        in.iselSeconds = spans["isel.lowerFunction"].seconds +
                         spans["fuzz.lowerMutant"].seconds;
        in.vcgenSeconds = spans["vcgen.generateSyncPoints"].seconds;
        in.validateSeconds = spans["driver.validateFunctionPair"].seconds;
        in.pairCheckSeconds = in.validateSeconds;
        in.validateIncludesIsel = false;
        in.unitSeconds = iterationSeconds;
        in.tracedWall = wall;
        in.untracedWall = untracedWall;
        in.concurrency = kJobs;
        in.generateSeconds = spans["fuzz.generateModuleSource"].seconds;
        in.execSeconds = spans["fuzz.compareExecutions"].seconds;
        in.harnessSeconds = spans["fuzz.iteration"].selfSeconds;
        in.mutantsApplied = total.applied;
        in.mutantsKilled = total.killed;
        LayerReport layers = computeLayers(in);
        layers.notes.push_back(
            "fuzz.shrink_s 0 s: the campaign has no failing seed to shrink");
        layerPasses.push_back(std::move(layers));
    }
    takeLayers(result, layerPasses);
    if (options.trace && !options.traceOut.empty())
        trace.write(options.traceOut);

    for (const fuzz::Mutation &mutation : fuzz::mutationCatalog())
        if (!mutation.expectEquivalent && kills[mutation.id] == 0)
            result.wrong(std::string("miscompile class ") + mutation.id +
                         " never killed");
    return result;
}

} // namespace perfbench
