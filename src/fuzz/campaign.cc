#include "src/fuzz/campaign.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <unordered_map>

#include "src/llvmir/parser.h"
#include "src/llvmir/verifier.h"
#include "src/support/diagnostics.h"
#include "src/support/journal.h"
#include "src/support/strings.h"
#include "src/support/thread_pool.h"

namespace keq::fuzz {

using support::Rng;

namespace {

/** Salt separating the mutant-oracle stream from the baseline one. */
constexpr uint64_t kMutantOracleSalt = 0x5851f42d4c957f2dull;

uint64_t
fnvHash(std::string_view text)
{
    uint64_t h = 1469598103934665603ull;
    for (char c : text)
        h = (h ^ static_cast<uint8_t>(c)) * 1099511628211ull;
    return h;
}

/**
 * Round-trippable module rendering: Module::toString prints
 * declarations as body-less defines, which the parser rejects, so the
 * reproducer artifacts render them as proper `declare` lines.
 */
std::string
moduleToSource(const llvmir::Module &module)
{
    std::ostringstream out;
    for (const llvmir::GlobalVariable &global : module.globals)
        out << global.name << " = external global "
            << global.valueType->toString() << "\n";
    for (const llvmir::Function &fn : module.functions) {
        if (!fn.isDeclaration())
            continue;
        out << "declare " << fn.returnType->toString() << " " << fn.name
            << "(";
        for (size_t i = 0; i < fn.params.size(); ++i)
            out << (i ? ", " : "") << fn.params[i].type->toString();
        out << ")\n";
    }
    out << "\n";
    for (const llvmir::Function &fn : module.functions)
        if (!fn.isDeclaration())
            out << fn.toString();
    return out.str();
}

const llvmir::Function *
firstDefinedFunction(const llvmir::Module &module)
{
    for (const llvmir::Function &fn : module.functions)
        if (!fn.isDeclaration())
            return &fn;
    return nullptr;
}

/** The MirRewrite entries the random phase samples from. */
std::vector<const Mutation *>
randomPhaseEntries(const CampaignOptions &options)
{
    std::vector<const Mutation *> entries;
    if (!options.onlyMutation.empty()) {
        if (const Mutation *entry = findMutation(options.onlyMutation))
            entries.push_back(entry);
        return entries;
    }
    // IselBug entries need their trigger pattern (adjacent stores /
    // zext(load)), which random programs rarely contain; they are
    // covered by the calibration phase instead.
    for (const Mutation &mutation : mutationCatalog())
        if (mutation.kind == MutationKind::MirRewrite)
            entries.push_back(&mutation);
    return entries;
}

/** A failing seed captured during an iteration (pre-shrink). */
struct Failure
{
    llvmir::Module module;
    Reproducer repro;
    uint64_t oracleSeed = 0;
    bool fromCalibration = false;
};

struct IterationOutcome
{
    CampaignStats stats;
    std::optional<Failure> failure;
};

// --- Campaign checkpointing ----------------------------------------------
//
// Iterations are pure in (options, index), so a checkpoint only has to
// record *finished* outcomes; a resumed campaign replays the journal
// into the same per-index slots and recomputes the rest. Modules inside
// failures round-trip through the reproducer source rendering, which is
// already required to re-parse exactly (it is the replay format).

constexpr const char *kCampaignJournalKind = "fuzz-campaign";

/** Campaign identity a checkpoint is bound to. */
std::string
campaignFingerprint(const CampaignOptions &options)
{
    std::ostringstream os;
    os << "seed=" << options.seed << ";iterations=" << options.iterations
       << ";only=" << options.onlyMutation
       << ";calibrate=" << (options.calibrate ? 1 : 0);
    char buffer[32];
    std::snprintf(buffer, sizeof(buffer), "%016llx",
                  static_cast<unsigned long long>(
                      support::fnv1a64(os.str())));
    return std::string(buffer);
}

std::string
serializeOutcome(size_t index, const IterationOutcome &outcome)
{
    const CampaignStats &s = outcome.stats;
    std::ostringstream os;
    os << "iter\t" << index << '\t' << s.programsGenerated << '\t'
       << s.generatedInstructions << '\t' << s.baselineValidated << '\t'
       << s.baselineUnvalidated << '\t' << s.unsupported << '\t'
       << s.mutantsAttempted << '\t' << s.mutantsApplied << '\t'
       << s.mutantsKilled << '\t' << s.mutantsSurvivedNeutral << '\t'
       << s.benignAccepted << '\t' << s.soundnessBugs << '\t'
       << s.completenessGaps << '\t' << s.inconclusive;
    os << '\t' << s.appliedByMutation.size();
    for (const auto &[id, count] : s.appliedByMutation)
        os << '\t' << support::escapeLine(id) << '\t' << count;
    os << '\t' << s.killsByMutation.size();
    for (const auto &[id, count] : s.killsByMutation)
        os << '\t' << support::escapeLine(id) << '\t' << count;
    if (outcome.failure.has_value()) {
        const Failure &failure = *outcome.failure;
        os << "\t1\t" << support::escapeLine(failure.repro.mutationId)
           << '\t' << support::escapeLine(failure.repro.classification)
           << '\t' << failure.repro.iteration << '\t'
           << failure.repro.mutationSeed << '\t' << failure.oracleSeed
           << '\t' << (failure.fromCalibration ? 1 : 0) << '\t'
           << support::escapeLine(moduleToSource(failure.module));
    } else {
        os << "\t0";
    }
    // Coverage rides last so journals written before the ledger existed
    // still deserialize (the field is optional on the read side).
    os << '\t' << support::escapeLine(s.coverage.serialize());
    return os.str();
}

bool
deserializeOutcome(const std::string &payload, size_t &index,
                   IterationOutcome &outcome)
{
    // Fields are individually escaped, so raw tabs only separate them.
    std::vector<std::string> fields = support::split(payload, '\t');
    size_t at = 0;
    auto next = [&](uint64_t &out) {
        return at < fields.size() && support::parseU64(fields[at++], out);
    };
    if (fields.empty() || fields[0] != "iter")
        return false;
    ++at;

    IterationOutcome result;
    CampaignStats &s = result.stats;
    uint64_t idx = 0;
    if (!next(idx) || !next(s.programsGenerated) ||
        !next(s.generatedInstructions) || !next(s.baselineValidated) ||
        !next(s.baselineUnvalidated) || !next(s.unsupported) ||
        !next(s.mutantsAttempted) || !next(s.mutantsApplied) ||
        !next(s.mutantsKilled) || !next(s.mutantsSurvivedNeutral) ||
        !next(s.benignAccepted) || !next(s.soundnessBugs) ||
        !next(s.completenessGaps) || !next(s.inconclusive)) {
        return false;
    }

    for (auto *map : {&s.appliedByMutation, &s.killsByMutation}) {
        uint64_t entries = 0;
        if (!next(entries))
            return false;
        for (uint64_t i = 0; i < entries; ++i) {
            if (at + 1 >= fields.size())
                return false;
            std::string id;
            uint64_t count = 0;
            if (!support::unescapeLine(fields[at++], id) ||
                !support::parseU64(fields[at++], count)) {
                return false;
            }
            (*map)[id] = count;
        }
    }

    uint64_t has_failure = 0;
    if (!next(has_failure) || has_failure > 1)
        return false;
    if (has_failure == 1) {
        if (at + 6 >= fields.size())
            return false;
        Failure failure;
        uint64_t iteration = 0, from_cal = 0;
        std::string source;
        if (!support::unescapeLine(fields[at],
                                   failure.repro.mutationId) ||
            !support::unescapeLine(fields[at + 1],
                                   failure.repro.classification) ||
            !support::parseU64(fields[at + 2], iteration) ||
            !support::parseU64(fields[at + 3], failure.repro.mutationSeed) ||
            !support::parseU64(fields[at + 4], failure.oracleSeed) ||
            !support::parseU64(fields[at + 5], from_cal) || from_cal > 1 ||
            !support::unescapeLine(fields[at + 6], source)) {
            return false;
        }
        at += 7;
        failure.repro.iteration = iteration;
        failure.fromCalibration = from_cal != 0;
        try {
            failure.module = llvmir::parseModule(source);
            llvmir::verifyModuleOrThrow(failure.module);
        } catch (const support::Error &) {
            return false;
        }
        result.failure = std::move(failure);
    }
    // Optional trailing coverage ledger (absent in pre-ledger journals,
    // which resume with empty coverage for restored iterations).
    if (at < fields.size()) {
        std::string ledger;
        if (!support::unescapeLine(fields[at], ledger) ||
            !CoverageMap::deserialize(ledger, s.coverage)) {
            return false;
        }
        ++at;
    }
    if (at != fields.size())
        return false;
    index = static_cast<size_t>(idx);
    outcome = std::move(result);
    return true;
}

/**
 * Classifies one mutant oracle result into the campaign counters;
 * returns the classification string when it is a validator bug.
 */
std::string
classifyMutant(const Mutation &mutation, const OracleResult &result,
               CampaignStats &stats)
{
    if (result.verdict == OracleVerdict::Inconclusive) {
        stats.inconclusive++;
        return {};
    }
    if (result.verdict == OracleVerdict::SoundnessBug) {
        stats.soundnessBugs++;
        return "soundness";
    }
    if (mutation.expectEquivalent) {
        if (result.verdict == OracleVerdict::Agree) {
            stats.benignAccepted++;
            return {};
        }
        // Killed: the rewrite preserves semantics by construction, so a
        // rejection (with a validated baseline) is a completeness gap.
        stats.completenessGaps++;
        return "completeness";
    }
    if (result.verdict == OracleVerdict::Killed) {
        stats.mutantsKilled++;
        stats.killsByMutation[mutation.id]++;
        return {};
    }
    stats.mutantsSurvivedNeutral++;
    return {};
}

IterationOutcome
runIteration(const CampaignOptions &options, size_t index)
{
    IterationOutcome outcome;
    CampaignStats &stats = outcome.stats;

    Rng iter = Rng::stream(options.seed, index);
    Rng gen_rng = iter.split();
    Rng select_rng = iter.split();
    uint64_t mut_seed = iter.next();
    uint64_t oracle_seed = iter.next();

    llvmir::Module module = generateModule(gen_rng, options.generator);
    const llvmir::Function *fn = firstDefinedFunction(module);
    stats.programsGenerated++;
    stats.generatedInstructions += fn->instructionCount();
    stats.coverage.recordModule(module);

    // Baseline: the clean lowering must validate and must agree with
    // the LLVM-side execution; otherwise the iteration carries no
    // mutant signal.
    isel::FunctionHints hints;
    vx86::MFunction clean;
    try {
        clean = isel::lowerFunction(module, *fn, {}, hints);
    } catch (const support::Error &) {
        stats.unsupported++;
        return outcome;
    }
    Rng baseline_oracle(oracle_seed);
    OracleResult baseline = crossCheck(module, *fn, clean, hints,
                                       baseline_oracle, options.oracle);
    switch (baseline.verdict) {
    case OracleVerdict::Agree:
        stats.baselineValidated++;
        break;
    case OracleVerdict::Killed:
        stats.baselineUnvalidated++;
        return outcome;
    case OracleVerdict::SoundnessBug: {
        stats.soundnessBugs++;
        Failure failure;
        failure.module = module;
        failure.repro.mutationId = "none";
        failure.repro.classification = "soundness";
        failure.repro.iteration = index;
        failure.repro.mutationSeed = mut_seed;
        failure.oracleSeed = oracle_seed;
        outcome.failure = std::move(failure);
        return outcome;
    }
    case OracleVerdict::Inconclusive:
        stats.inconclusive++;
        return outcome;
    }

    std::vector<const Mutation *> entries = randomPhaseEntries(options);
    if (entries.empty())
        return outcome;
    const Mutation &mutation =
        *entries[select_rng.below(entries.size())];

    stats.mutantsAttempted++;
    Rng mut_rng(mut_seed);
    MutantLowering mutant;
    try {
        mutant = lowerMutant(mutation, module, *fn, mut_rng);
    } catch (const support::Error &) {
        stats.unsupported++;
        return outcome;
    }
    if (!mutant.applied)
        return outcome;
    stats.mutantsApplied++;
    stats.appliedByMutation[mutation.id]++;

    Rng mutant_oracle(oracle_seed ^ kMutantOracleSalt);
    OracleResult result = crossCheck(module, *fn, mutant.mfn,
                                     mutant.hints, mutant_oracle,
                                     options.oracle);
    std::string classification = classifyMutant(mutation, result, stats);
    if (!classification.empty()) {
        Failure failure;
        failure.module = module;
        failure.repro.mutationId = mutation.id;
        failure.repro.classification = classification;
        failure.repro.iteration = index;
        failure.repro.mutationSeed = mut_seed;
        failure.oracleSeed = oracle_seed;
        outcome.failure = std::move(failure);
    }
    return outcome;
}

/**
 * Calibration: every catalogue entry once, on its own exemplar. The
 * per-entry streams are pure in (seed, id), so calibration results are
 * independent of jobs and iteration count.
 */
void
runCalibration(const CampaignOptions &options, CampaignStats &stats,
               std::vector<Failure> &failures)
{
    for (const Mutation &mutation : mutationCatalog()) {
        if (!options.onlyMutation.empty() &&
            options.onlyMutation != mutation.id)
            continue;
        llvmir::Module module = llvmir::parseModule(mutation.exemplar);
        llvmir::verifyModuleOrThrow(module);
        stats.coverage.recordModule(module);
        const llvmir::Function *fn =
            module.findFunction(mutation.exemplarFunction);
        if (fn == nullptr)
            throw support::Error(std::string("catalogue entry ") +
                                 mutation.id +
                                 ": exemplar function not found");
        uint64_t mut_seed = options.seed ^ fnvHash(mutation.id);
        uint64_t oracle_seed = fnvHash(mutation.id) * 31 ^ options.seed;

        stats.mutantsAttempted++;
        Rng mut_rng(mut_seed);
        MutantLowering mutant = lowerMutant(mutation, module, *fn,
                                            mut_rng);
        if (!mutant.applied)
            throw support::Error(
                std::string("catalogue entry ") + mutation.id +
                ": mutation does not apply to its own exemplar");
        stats.mutantsApplied++;
        stats.appliedByMutation[mutation.id]++;

        Rng oracle_rng(oracle_seed ^ kMutantOracleSalt);
        OracleResult result = crossCheck(module, *fn, mutant.mfn,
                                         mutant.hints, oracle_rng,
                                         options.oracle);
        std::string classification =
            classifyMutant(mutation, result, stats);
        if (!classification.empty()) {
            Failure failure;
            failure.module = module;
            failure.repro.mutationId = mutation.id;
            failure.repro.classification = classification;
            failure.repro.iteration = 0;
            failure.repro.mutationSeed = mut_seed;
            failure.oracleSeed = oracle_seed;
            failure.fromCalibration = true;
            failures.push_back(std::move(failure));
        }
    }
}

/**
 * The shrinker's predicate: the recorded mutation, replayed with the
 * recorded seeds, still produces the same classification (and for
 * completeness gaps the baseline still validates, so the gap stays
 * attributable to the rewrite).
 */
bool
failureReproduces(const llvmir::Module &module, const Reproducer &repro,
                  uint64_t oracle_seed, const CampaignOptions &options)
{
    const llvmir::Function *fn = firstDefinedFunction(module);
    if (fn == nullptr)
        return false;
    try {
        if (repro.mutationId == "none") {
            isel::FunctionHints hints;
            vx86::MFunction clean =
                isel::lowerFunction(module, *fn, {}, hints);
            Rng oracle_rng(oracle_seed);
            OracleResult result = crossCheck(module, *fn, clean, hints,
                                             oracle_rng, options.oracle);
            return result.verdict == OracleVerdict::SoundnessBug;
        }
        const Mutation *mutation = findMutation(repro.mutationId);
        if (mutation == nullptr)
            return false;
        if (repro.classification == "completeness") {
            isel::FunctionHints hints;
            vx86::MFunction clean =
                isel::lowerFunction(module, *fn, {}, hints);
            Rng baseline_rng(oracle_seed);
            OracleResult baseline = crossCheck(
                module, *fn, clean, hints, baseline_rng, options.oracle);
            if (baseline.verdict != OracleVerdict::Agree)
                return false;
        }
        Rng mut_rng(repro.mutationSeed);
        MutantLowering mutant =
            lowerMutant(*mutation, module, *fn, mut_rng);
        if (!mutant.applied)
            return false;
        Rng oracle_rng(oracle_seed ^ kMutantOracleSalt);
        OracleResult result = crossCheck(module, *fn, mutant.mfn,
                                         mutant.hints, oracle_rng,
                                         options.oracle);
        if (repro.classification == "soundness")
            return result.verdict == OracleVerdict::SoundnessBug;
        return result.verdict == OracleVerdict::Killed;
    } catch (const support::Error &) {
        return false;
    }
}

std::string
renderArtifact(const llvmir::Module &module, const Reproducer &repro,
               uint64_t seed, uint64_t oracle_seed)
{
    std::ostringstream out;
    out << "; keq-fuzz-repro v1\n"
        << "; mutation=" << repro.mutationId << "\n"
        << "; class=" << repro.classification << "\n"
        << "; seed=" << seed << "\n"
        << "; iteration=" << repro.iteration << "\n"
        << "; mutseed=" << repro.mutationSeed << "\n"
        << "; oracleseed=" << oracle_seed << "\n"
        << moduleToSource(module);
    return out.str();
}

/** Shrinks, renders, and (optionally) persists one failure. */
Reproducer
finalizeFailure(Failure &failure, const CampaignOptions &options,
                ShrinkStats *shrink_stats)
{
    Reproducer repro = failure.repro;
    llvmir::Module final_module = failure.module;
    repro.originalInstructions =
        moduleInstructionCount(failure.module);
    repro.shrunkInstructions = repro.originalInstructions;

    if (options.shrinkFailures) {
        FailurePredicate predicate =
            [&](const llvmir::Module &candidate) {
                return failureReproduces(candidate, repro,
                                         failure.oracleSeed, options);
            };
        // Only shrink what provably reproduces from its own source
        // (paranoia: a non-reproducing failure is itself a finding and
        // must be reported unshrunk).
        if (predicate(failure.module)) {
            ShrinkResult shrunk =
                shrinkModule(failure.module, predicate, options.shrink);
            final_module = std::move(shrunk.module);
            repro.shrunkInstructions = shrunk.stats.finalInstructions;
            if (shrink_stats != nullptr)
                *shrink_stats = shrunk.stats;
        }
    }

    repro.artifact = renderArtifact(final_module, repro, options.seed,
                                    failure.oracleSeed);
    std::string stem = failure.fromCalibration
                           ? "cal-" + repro.mutationId
                           : std::to_string(repro.iteration) + "-" +
                                 repro.mutationId;
    repro.fileName =
        "repro-" + stem + "-" + repro.classification + ".ll";
    if (!options.corpusDir.empty()) {
        std::filesystem::create_directories(options.corpusDir);
        std::ofstream out(std::filesystem::path(options.corpusDir) /
                          repro.fileName);
        out << repro.artifact;
    }
    return repro;
}

} // namespace

void
CampaignStats::merge(const CampaignStats &other)
{
    programsGenerated += other.programsGenerated;
    generatedInstructions += other.generatedInstructions;
    baselineValidated += other.baselineValidated;
    baselineUnvalidated += other.baselineUnvalidated;
    unsupported += other.unsupported;
    mutantsAttempted += other.mutantsAttempted;
    mutantsApplied += other.mutantsApplied;
    mutantsKilled += other.mutantsKilled;
    mutantsSurvivedNeutral += other.mutantsSurvivedNeutral;
    benignAccepted += other.benignAccepted;
    soundnessBugs += other.soundnessBugs;
    completenessGaps += other.completenessGaps;
    inconclusive += other.inconclusive;
    for (const auto &[id, count] : other.appliedByMutation)
        appliedByMutation[id] += count;
    for (const auto &[id, count] : other.killsByMutation)
        killsByMutation[id] += count;
    coverage.merge(other.coverage);
}

bool
CampaignResult::allMiscompileClassesKilled() const
{
    for (const Mutation &mutation : mutationCatalog()) {
        if (mutation.expectEquivalent)
            continue;
        auto it = stats.killsByMutation.find(mutation.id);
        if (it == stats.killsByMutation.end() || it->second == 0)
            return false;
    }
    return true;
}

std::string
CampaignResult::canonicalSummary() const
{
    std::ostringstream out;
    out << "iterations=" << iterationsRun
        << " truncated=" << (truncated ? 1 : 0) << "\n";
    out << "programs=" << stats.programsGenerated
        << " instructions=" << stats.generatedInstructions
        << " baseline-validated=" << stats.baselineValidated
        << " baseline-unvalidated=" << stats.baselineUnvalidated
        << " unsupported=" << stats.unsupported << "\n";
    out << "mutants attempted=" << stats.mutantsAttempted
        << " applied=" << stats.mutantsApplied
        << " killed=" << stats.mutantsKilled
        << " neutral=" << stats.mutantsSurvivedNeutral
        << " benign-accepted=" << stats.benignAccepted << "\n";
    out << "soundness-bugs=" << stats.soundnessBugs
        << " completeness-gaps=" << stats.completenessGaps
        << " inconclusive=" << stats.inconclusive << "\n";
    for (const auto &[id, count] : stats.appliedByMutation)
        out << "applied " << id << "=" << count << "\n";
    for (const auto &[id, count] : stats.killsByMutation)
        out << "killed " << id << "=" << count << "\n";
    for (const Reproducer &repro : reproducers)
        out << "repro " << repro.fileName
            << " instructions=" << repro.originalInstructions << "->"
            << repro.shrunkInstructions << "\n";
    return out.str();
}

std::string
CampaignResult::renderTable() const
{
    std::ostringstream out;
    out << canonicalSummary();
    double rate = seconds > 0.0
                      ? static_cast<double>(stats.programsGenerated) /
                            seconds
                      : 0.0;
    out << "wall-clock " << seconds << " s (" << rate
        << " programs/s)\n";
    out << (allMiscompileClassesKilled()
                ? "every miscompile class killed at least once\n"
                : "WARNING: some miscompile class was never killed\n");
    return out.str();
}

CampaignResult
runCampaign(const CampaignOptions &options)
{
    auto start = std::chrono::steady_clock::now();
    CampaignResult result;
    std::vector<Failure> failures;

    // Checkpoint plumbing. Calibration is deterministic and cheap, so
    // only random-phase iterations are journaled; a resumed campaign
    // re-runs calibration and restores the recorded iterations.
    std::unordered_map<size_t, IterationOutcome> restored;
    std::unique_ptr<support::JournalWriter> journal;
    if (!options.checkpointPath.empty()) {
        std::string fingerprint = campaignFingerprint(options);
        bool meta_present = false;
        if (options.resume) {
            support::JournalLoad loaded = support::loadJournal(
                options.checkpointPath, kCampaignJournalKind);
            if (!loaded.ok)
                throw support::Error(loaded.error);
            for (size_t i = 0; i < loaded.records.size(); ++i) {
                const std::string &payload = loaded.records[i];
                if (i == 0 && payload.rfind("meta\t", 0) == 0) {
                    if (payload.substr(5) != fingerprint) {
                        throw support::Error(
                            "checkpoint '" + options.checkpointPath +
                            "' was written by a different campaign "
                            "(fingerprint mismatch); refusing to "
                            "resume");
                    }
                    meta_present = true;
                    continue;
                }
                size_t index = 0;
                IterationOutcome outcome;
                if (!deserializeOutcome(payload, index, outcome))
                    break; // schema drift: distrust the rest
                if (index < options.iterations)
                    restored[index] = std::move(outcome);
            }
            if (!restored.empty() && !meta_present) {
                throw support::Error(
                    "checkpoint '" + options.checkpointPath +
                    "' carries iterations but no campaign "
                    "fingerprint; refusing to resume");
            }
        } else {
            std::remove(options.checkpointPath.c_str());
        }
        journal = std::make_unique<support::JournalWriter>(
            options.checkpointPath, kCampaignJournalKind,
            options.checkpointFsync);
        if (!meta_present)
            journal->append("meta\t" + fingerprint);
    }

    if (options.calibrate)
        runCalibration(options, result.stats, failures);

    std::vector<std::optional<IterationOutcome>> outcomes(
        options.iterations);
    std::atomic<bool> expired{false};
    auto overBudget = [&]() {
        if (options.maxSeconds <= 0.0)
            return false;
        if (expired.load(std::memory_order_relaxed))
            return true;
        std::chrono::duration<double> elapsed =
            std::chrono::steady_clock::now() - start;
        if (elapsed.count() < options.maxSeconds)
            return false;
        expired.store(true, std::memory_order_relaxed);
        return true;
    };

    support::ThreadPool pool(options.jobs);
    support::parallelFor(pool, options.iterations, [&](size_t index) {
        auto hit = restored.find(index);
        if (hit != restored.end()) {
            outcomes[index] = hit->second; // read-only map: no locking
            return;
        }
        if (overBudget())
            return; // truncation: the slot stays empty
        outcomes[index] = runIteration(options, index);
        if (journal != nullptr)
            journal->append(serializeOutcome(index, *outcomes[index]));
    });

    // Merge in iteration order: the summary is independent of worker
    // scheduling.
    for (size_t i = 0; i < outcomes.size(); ++i) {
        if (!outcomes[i].has_value())
            continue;
        result.iterationsRun++;
        if (restored.count(i) != 0)
            result.resumedIterations++;
        result.stats.merge(outcomes[i]->stats);
        if (outcomes[i]->failure.has_value())
            failures.push_back(std::move(*outcomes[i]->failure));
    }
    result.truncated = expired.load();

    // Shrink and persist serially, calibration failures first, then by
    // iteration (the order failures were pushed).
    for (Failure &failure : failures)
        result.reproducers.push_back(
            finalizeFailure(failure, options, nullptr));

    std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - start;
    result.seconds = elapsed.count();
    return result;
}

ReplayResult
replayReproducer(const std::string &artifact,
                 const CampaignOptions &options)
{
    ReplayResult replay;
    Reproducer repro;
    uint64_t oracle_seed = 0;

    std::istringstream lines(artifact);
    std::string line;
    while (std::getline(lines, line)) {
        if (line.rfind("; ", 0) != 0)
            continue;
        std::string_view view(line);
        view.remove_prefix(2);
        auto take = [&view](std::string_view key) {
            return view.rfind(key, 0) == 0
                       ? std::optional<std::string>(std::string(
                             view.substr(key.size())))
                       : std::nullopt;
        };
        // A truncated or hand-edited artifact must fail with a
        // diagnostic, not an uncaught std::invalid_argument from
        // std::stoull (which aborts the tool).
        auto parse_count = [](const std::string &text, const char *key) {
            uint64_t value = 0;
            if (!support::parseU64(text, value)) {
                throw support::Error(
                    std::string("reproducer artifact: malformed ") +
                    key + " value '" + text + "'");
            }
            return value;
        };
        if (auto v = take("mutation="))
            repro.mutationId = *v;
        else if (auto v = take("class="))
            repro.classification = *v;
        else if (auto v = take("iteration="))
            repro.iteration = parse_count(*v, "iteration");
        else if (auto v = take("mutseed="))
            repro.mutationSeed = parse_count(*v, "mutseed");
        else if (auto v = take("oracleseed="))
            oracle_seed = parse_count(*v, "oracleseed");
    }
    replay.classification = repro.classification;
    if (repro.classification.empty() || repro.mutationId.empty()) {
        replay.detail = "artifact is missing keq-fuzz-repro metadata";
        return replay;
    }

    llvmir::Module module = llvmir::parseModule(artifact);
    llvmir::verifyModuleOrThrow(module);
    const llvmir::Function *fn = firstDefinedFunction(module);
    if (fn == nullptr) {
        replay.detail = "artifact contains no defined function";
        return replay;
    }

    // Re-run the recorded scenario and capture the oracle view.
    if (repro.mutationId == "none") {
        isel::FunctionHints hints;
        vx86::MFunction clean = isel::lowerFunction(module, *fn, {},
                                                    hints);
        Rng oracle_rng(oracle_seed);
        replay.oracle = crossCheck(module, *fn, clean, hints, oracle_rng,
                                   options.oracle);
        replay.reproduced =
            replay.oracle.verdict == OracleVerdict::SoundnessBug;
        return replay;
    }
    const Mutation *mutation = findMutation(repro.mutationId);
    if (mutation == nullptr) {
        replay.detail =
            "unknown mutation id: " + repro.mutationId;
        return replay;
    }
    Rng mut_rng(repro.mutationSeed);
    MutantLowering mutant = lowerMutant(*mutation, module, *fn, mut_rng);
    if (!mutant.applied) {
        replay.detail = "mutation no longer applies to the module";
        return replay;
    }
    Rng oracle_rng(oracle_seed ^ kMutantOracleSalt);
    replay.oracle = crossCheck(module, *fn, mutant.mfn, mutant.hints,
                               oracle_rng, options.oracle);
    replay.reproduced =
        repro.classification == "soundness"
            ? replay.oracle.verdict == OracleVerdict::SoundnessBug
            : replay.oracle.verdict == OracleVerdict::Killed;
    replay.detail = replay.oracle.detail;
    return replay;
}

} // namespace keq::fuzz
