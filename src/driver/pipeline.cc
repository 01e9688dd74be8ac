#include "src/driver/pipeline.h"

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <unordered_map>

#include "src/driver/checkpoint.h"
#include "src/llvmir/layout_builder.h"
#include "src/llvmir/parser.h"
#include "src/llvmir/symbolic_semantics.h"
#include "src/llvmir/verifier.h"
#include "src/memory/layout.h"
#include "src/smt/solver_stack.h"
#include "src/smt/term_factory.h"
#include "src/support/diagnostics.h"
#include "src/support/journal.h"
#include "src/support/stopwatch.h"
#include "src/support/thread_pool.h"
#include "src/regalloc/regalloc.h"
#include "src/vcgen/regalloc_vcgen.h"
#include "src/vx86/symbolic_semantics.h"

namespace keq::driver {

const char *
outcomeName(Outcome outcome)
{
    switch (outcome) {
      case Outcome::Succeeded: return "Succeeded";
      case Outcome::Timeout: return "Failed due to timeout";
      case Outcome::OutOfMemory: return "Failed due to out-of-memory";
      case Outcome::Other: return "Other";
      case Outcome::Unsupported: return "Unsupported";
    }
    return "?";
}

std::string
FunctionReport::canonicalSummary() const
{
    std::ostringstream os;
    os << function << " | " << outcomeName(outcome) << " | "
       << checker::verdictKindName(verdict.kind)
       << " | fail=" << failureKindName(verdict.failure)
       << " | refine=" << (verdict.usedRefinementFallback ? 1 : 0)
       << " | queries=" << verdict.stats.solverQueries
       << " points=" << verdict.stats.pointsChecked
       << " steps=" << verdict.stats.symbolicSteps
       << " pairs=" << verdict.stats.pairsExamined
       << " | llvm=" << llvmInstructions << " x86=" << x86Instructions
       << " sync=" << syncPointCount << " spec=" << specTextSize
       << " | " << detail;
    return os.str();
}

size_t
ModuleReport::countOutcome(Outcome outcome) const
{
    size_t count = 0;
    for (const FunctionReport &report : functions) {
        if (report.outcome == outcome)
            ++count;
    }
    return count;
}

std::string
ModuleReport::renderTable() const
{
    size_t unsupported = countOutcome(Outcome::Unsupported);
    size_t total = functions.size() - unsupported;
    std::ostringstream os;
    os << "Result                       | #Functions\n";
    os << "-----------------------------+-----------\n";
    auto row = [&](Outcome outcome) {
        os << outcomeName(outcome);
        for (size_t i = std::string(outcomeName(outcome)).size(); i < 29;
             ++i) {
            os << ' ';
        }
        os << "| " << countOutcome(outcome) << "\n";
    };
    row(Outcome::Succeeded);
    row(Outcome::Timeout);
    row(Outcome::OutOfMemory);
    row(Outcome::Other);
    os << "Total                        | " << total << "\n";
    if (unsupported > 0) {
        os << "(excluded: " << unsupported
           << " functions outside the supported fragment)\n";
    }
    return os.str();
}

std::string
ModuleReport::canonicalSummary() const
{
    std::ostringstream os;
    for (const FunctionReport &report : functions)
        os << report.canonicalSummary() << "\n";
    return os.str();
}

namespace {

/**
 * What one validation solves on. The default is the reference stack of
 * the free entry points: the "default" lane alone, with no front,
 * injector or guard (used as the unoptimized reference stack by tests
 * and benches).
 */
struct SolveSetup
{
    smt::StackSpec stack;
    /** Cooperative cancellation for the checker. */
    support::CancellationToken cancel;
};

/**
 * VC generation + KEQ checking for one (LLVM, Virtual x86) pair whose
 * machine side has already been produced — by this pipeline's ISel, or
 * by the fuzz mutation engine. Creates every non-thread-safe component
 * (factory, semantics, solver stack) locally so concurrent invocations
 * share nothing but the optional query cache and sandbox pool.
 */
FunctionReport
validatePairImpl(const llvmir::Module &module, const llvmir::Function &fn,
                 vx86::MFunction mfn, const isel::FunctionHints &hints,
                 const PipelineOptions &options, const SolveSetup &setup,
                 smt::SolverStats *solver_stats)
{
    FunctionReport report;
    report.function = fn.name;
    report.llvmInstructions = fn.instructionCount();
    support::Stopwatch watch;

    try {
        report.x86Instructions = mfn.instructionCount();

        // 2. Verification condition generation.
        vcgen::VcResult vc =
            vcgen::generateSyncPoints(fn, mfn, hints, options.vc);
        report.syncPointCount = vc.points.points.size();
        report.specTextSize = vc.points.specTextSize();
        if (options.specSizeBudget > 0 &&
            report.specTextSize > options.specSizeBudget) {
            report.outcome = Outcome::OutOfMemory;
            report.detail = "sync-point specification exceeds the parse "
                            "memory budget (" +
                            std::to_string(report.specTextSize) +
                            " chars)";
            report.seconds = watch.seconds();
            return report;
        }

        // 3. KEQ equivalence checking.
        smt::TermFactory factory;
        mem::MemoryLayout layout;
        llvmir::populateLayout(module, layout);
        llvmir::SymbolicSemantics sem_a(module, factory, layout);
        vx86::MModule mmodule;
        mmodule.functions.push_back(std::move(mfn));
        vx86::SymbolicSemantics sem_b(mmodule, factory, layout);
        smt::SolverStack stack = smt::buildSolverStack(factory, setup.stack);
        smt::Solver &solver = stack.top();

        checker::CheckerConfig checker_config = options.checker;
        if (setup.cancel.valid())
            checker_config.cancel = setup.cancel;
        sem::IselAcceptability acceptability;
        checker::Checker checker(sem_a, sem_b, acceptability, solver,
                                 checker_config);
        report.verdict = checker.check(fn.name, fn.name, vc.points);
        if (solver_stats != nullptr)
            *solver_stats = solver.stats();

        switch (report.verdict.kind) {
          case checker::VerdictKind::Equivalent:
          case checker::VerdictKind::Refines:
            report.outcome = Outcome::Succeeded;
            break;
          case checker::VerdictKind::Timeout:
            report.outcome = Outcome::Timeout;
            break;
          case checker::VerdictKind::OutOfMemory:
            report.outcome = Outcome::OutOfMemory;
            break;
          case checker::VerdictKind::NotValidated:
            report.outcome = Outcome::Other;
            break;
        }
        report.detail = report.verdict.reason;
        if (!vc.adequate && report.outcome == Outcome::Other) {
            report.detail +=
                " [VC generator warnings: " +
                std::to_string(vc.warnings.size()) + "]";
        }
    } catch (const support::Error &error) {
        report.outcome = Outcome::Unsupported;
        report.detail = error.what();
    }

    report.seconds = watch.seconds();
    return report;
}

/**
 * The per-function unit of work including the ISel stage: lower, then
 * validate the resulting pair.
 */
FunctionReport
validateFunctionImpl(const llvmir::Module &module,
                     const llvmir::Function &fn,
                     const PipelineOptions &options,
                     const SolveSetup &setup,
                     smt::SolverStats *solver_stats)
{
    // 1. Instruction Selection with hint generation. Unsupported
    // constructs surface here, before any pair exists.
    isel::FunctionHints hints;
    vx86::MFunction mfn;
    try {
        mfn = isel::lowerFunction(module, fn, options.isel, hints);
    } catch (const support::Error &error) {
        FunctionReport report;
        report.function = fn.name;
        report.llvmInstructions = fn.instructionCount();
        report.outcome = Outcome::Unsupported;
        report.detail = error.what();
        return report;
    }
    return validatePairImpl(module, fn, std::move(mfn), hints, options,
                            setup, solver_stats);
}

std::vector<const llvmir::Function *>
definedFunctions(const llvmir::Module &module)
{
    std::vector<const llvmir::Function *> functions;
    for (const llvmir::Function &fn : module.functions) {
        if (!fn.isDeclaration())
            functions.push_back(&fn);
    }
    return functions;
}

} // namespace

FunctionReport
validateFunction(const llvmir::Module &module, const llvmir::Function &fn,
                 const PipelineOptions &options)
{
    return validateFunctionImpl(module, fn, options, SolveSetup{},
                                nullptr);
}

FunctionReport
validateFunctionPair(const llvmir::Module &module,
                     const llvmir::Function &fn, vx86::MFunction mfn,
                     const isel::FunctionHints &hints,
                     const PipelineOptions &options)
{
    return validatePairImpl(module, fn, std::move(mfn), hints, options,
                            SolveSetup{}, nullptr);
}

FunctionReport
validateRegAlloc(const llvmir::Module &module, const llvmir::Function &fn,
                 const PipelineOptions &options)
{
    FunctionReport report;
    report.function = fn.name;
    report.llvmInstructions = fn.instructionCount();
    support::Stopwatch watch;

    try {
        isel::FunctionHints hints;
        vx86::MFunction pre =
            isel::lowerFunction(module, fn, options.isel, hints);
        regalloc::AllocationResult allocation =
            regalloc::allocateRegisters(pre);
        report.x86Instructions = allocation.fn.instructionCount();

        vcgen::VcResult vc =
            vcgen::generateRegAllocSyncPoints(pre, allocation);
        report.syncPointCount = vc.points.points.size();
        report.specTextSize = vc.points.specTextSize();

        smt::TermFactory factory;
        mem::MemoryLayout layout;
        llvmir::populateLayout(module, layout);
        vx86::MModule pre_module;
        pre_module.functions.push_back(std::move(pre));
        vx86::MModule post_module;
        post_module.functions.push_back(std::move(allocation.fn));
        vx86::SymbolicSemantics sem_a(pre_module, factory, layout);
        vx86::SymbolicSemantics sem_b(post_module, factory, layout);
        smt::SolverStack stack =
            smt::buildSolverStack(factory, smt::StackSpec{});
        sem::IselAcceptability acceptability;
        checker::Checker checker(sem_a, sem_b, acceptability, stack.top(),
                                 options.checker);
        report.verdict = checker.check(fn.name, fn.name, vc.points);

        switch (report.verdict.kind) {
          case checker::VerdictKind::Equivalent:
          case checker::VerdictKind::Refines:
            report.outcome = Outcome::Succeeded;
            break;
          case checker::VerdictKind::Timeout:
            report.outcome = Outcome::Timeout;
            break;
          case checker::VerdictKind::OutOfMemory:
            report.outcome = Outcome::OutOfMemory;
            break;
          case checker::VerdictKind::NotValidated:
            report.outcome = Outcome::Other;
            break;
        }
        report.detail = report.verdict.reason;
    } catch (const support::Error &error) {
        report.outcome = Outcome::Unsupported;
        report.detail = error.what();
    }

    report.seconds = watch.seconds();
    return report;
}

// --- Pipeline ------------------------------------------------------------

Pipeline::Pipeline(PipelineOptions options, ExecutionOptions exec)
    : options_(std::move(options)), exec_(std::move(exec))
{
    // The optimized stack's verdict store, byte-budgeted (LRU); the
    // reference stack has none.
    if (exec_.optimizeQueries) {
        cache_ = exec_.externalCache != nullptr
                     ? exec_.externalCache
                     : std::make_shared<smt::QueryCache>(
                           smt::QueryCache::kDefaultMaxEntriesPerShard,
                           exec_.cacheMemoryMb << 20);
    }
}

FunctionReport
Pipeline::validateWith(const llvmir::Module &module,
                       const llvmir::Function &fn,
                       const ExecutionOptions &exec,
                       smt::WorkerSupervisor *sandbox,
                       smt::SolverStats *stats) const
{
    SolveSetup setup;
    setup.cancel = exec.cancel;
    smt::StackSpec &spec = setup.stack;
    spec.lane = exec.optimizeQueries ? smt::Lane::Default : smt::Lane::Cold;
    spec.sandbox = sandbox;
    spec.cache = cache_;
    // Trust-but-verify: sample journal-preloaded hits and recheck them
    // against the pristine solver before serving.
    spec.front.auditRate = exec.auditRate;
    spec.front.auditSeed = exec.auditSeed;
    spec.front.onAuditMismatch = exec.onAuditMismatch;
    spec.memoryBudgetMb = exec.solverMemoryMb;
    if (sandbox == nullptr) {
        // Injector and guard run in process only: a sandboxed stack's
        // guard runs in the worker, next to the solver it protects,
        // and its chaos is real signals. The fault plan derives from
        // the function name, not the scheduling order, so serial and
        // parallel chaos runs draw identical fault schedules.
        spec.faults = exec.faults.derive(support::fnv1a64(fn.name));
        smt::GuardedSolverOptions guard;
        guard.deadlineMs = exec.deadlineMs;
        guard.retries = exec.solverRetries;
        guard.cancel = exec.cancel;
        spec.guard = guard;
    }
    return validateFunctionImpl(module, fn, options_, setup, stats);
}

FunctionReport
Pipeline::validateFunction(const llvmir::Module &module,
                           const llvmir::Function &fn)
{
    smt::SolverStats stats;
    return validateWith(module, fn, exec_, sandboxSupervisor(1), &stats);
}

FunctionReport
Pipeline::validateFunction(const llvmir::Module &module,
                           const llvmir::Function &fn,
                           unsigned deadlineMsCap)
{
    // Effective deadline = the tighter of the configured one and the
    // caller's cap (the daemon passes each job's *remaining* wall
    // budget here). Equal-or-looser caps take the plain path so the
    // common case stays zero-copy.
    unsigned effective = exec_.deadlineMs;
    if (deadlineMsCap > 0 &&
        (effective == 0 || deadlineMsCap < effective))
        effective = deadlineMsCap;
    if (effective == exec_.deadlineMs)
        return validateFunction(module, fn);

    ExecutionOptions exec = exec_;
    exec.deadlineMs = effective;
    smt::SolverStats stats;
    return validateWith(module, fn, exec, sandboxSupervisor(1), &stats);
}

smt::WorkerSupervisor *
Pipeline::sandboxSupervisor(unsigned workers)
{
    if (!exec_.sandbox || sandboxDegraded_)
        return nullptr;
    if (supervisor_ != nullptr && supervisor_->started())
        return supervisor_.get();

    // One worker per concurrent function validation by default.
    smt::SandboxOptions sandbox;
    sandbox.workerPath = exec_.workerPath;
    sandbox.workers = exec_.sandboxWorkers > 0
                          ? exec_.sandboxWorkers
                          : std::max<unsigned>(workers, 1);
    sandbox.workerMemoryMb = exec_.workerMemoryMb;
    sandbox.memoryBudgetMb = exec_.solverMemoryMb;
    sandbox.retries = exec_.solverRetries;
    sandbox.chaosKillRate = exec_.sandboxChaosKillRate;
    sandbox.chaosSeed = exec_.sandboxChaosSeed;
    sandbox.cancel = exec_.cancel;
    supervisor_ = std::make_unique<smt::WorkerSupervisor>(sandbox);
    std::string error;
    if (!supervisor_->start(error)) {
        // Graceful degradation: a missing or broken worker binary must
        // not fail the run — warn once and keep the in-process stack.
        std::fprintf(stderr,
                     "keq: solver sandbox disabled: %s "
                     "(falling back to in-process solving)\n",
                     error.c_str());
        supervisor_.reset();
        sandboxDegraded_ = true;
        return nullptr;
    }
    return supervisor_.get();
}

ModuleReport
Pipeline::run(const llvmir::Module &module)
{
    return runWithJobs(module, 1);
}

ModuleReport
Pipeline::runParallel(const llvmir::Module &module)
{
    return runWithJobs(module, exec_.jobs);
}

ModuleReport
Pipeline::runParallel(const llvmir::Module &module, unsigned jobs)
{
    return runWithJobs(module, jobs);
}

ModuleReport
Pipeline::runWithJobs(const llvmir::Module &module, unsigned jobs)
{
    std::vector<const llvmir::Function *> functions =
        definedFunctions(module);

    ModuleReport report;
    report.functions.resize(functions.size());
    std::vector<smt::SolverStats> per_function(functions.size());

    // Crash-safe checkpointing: restore decided verdicts up front, then
    // journal each fresh verdict as it lands. The decided map is frozen
    // before the parallel phase, so workers read it without locking.
    std::unordered_map<std::string, FunctionReport> decided;
    std::unique_ptr<CheckpointJournal> journal;
    if (!exec_.checkpointPath.empty()) {
        std::string fingerprint = moduleFingerprint(module);
        bool meta_present = false;
        if (exec_.resume) {
            CheckpointJournal::Load loaded = CheckpointJournal::load(
                exec_.checkpointPath, fingerprint);
            if (!loaded.ok)
                throw support::Error(loaded.error);
            decided = std::move(loaded.decided);
            meta_present = loaded.hasMeta;
            report.droppedCheckpointRecords = loaded.truncatedRecords;
        } else {
            // Fresh campaign: a stale checkpoint at this path would
            // poison a later --resume, so drop it now.
            std::remove(exec_.checkpointPath.c_str());
        }
        journal = std::make_unique<CheckpointJournal>(
            exec_.checkpointPath, fingerprint, meta_present,
            exec_.checkpointFsync);
    }

    smt::CacheStats cache_before;
    if (cache_ != nullptr)
        cache_before = cache_->stats();

    // Validation is CPU-bound, so oversubscribing cores only adds
    // contention (Z3's allocator locks, context switches): clamp the
    // worker count to the host parallelism and the amount of work.
    // jobs == 0 means "one worker per core".
    unsigned workers = jobs == 0 ? support::ThreadPool::hardwareThreads()
                                 : jobs;
    workers = std::min<unsigned>(
        {workers, support::ThreadPool::hardwareThreads(),
         static_cast<unsigned>(
             std::max<size_t>(functions.size(), 1))});

    // Resolve the sandbox before fanning out so the degradation warning
    // prints once, not once per task.
    smt::WorkerSupervisor *sandbox = sandboxSupervisor(workers);

    auto validate_one = [&](size_t index) {
        const llvmir::Function &fn = *functions[index];
        auto hit = decided.find(fn.name);
        if (hit != decided.end()) {
            report.functions[index] = hit->second;
            return;
        }
        if (exec_.cancel.cancelled()) {
            // Don't even start ISel/VC generation: produce the same
            // cancelled verdict the checker would, just sooner. Never
            // journaled, so a resumed run recomputes it.
            FunctionReport &out = report.functions[index];
            out.function = fn.name;
            out.llvmInstructions = fn.instructionCount();
            out.outcome = Outcome::Timeout;
            out.verdict.kind = checker::VerdictKind::Timeout;
            out.verdict.failure = FailureKind::Cancelled;
            out.verdict.reason = "cancelled";
            out.detail = "cancelled";
            return;
        }
        report.functions[index] = validateWith(module, fn, exec_, sandbox,
                                               &per_function[index]);
        if (journal != nullptr)
            journal->record(report.functions[index]);
    };

    if (workers <= 1) {
        for (size_t i = 0; i < functions.size(); ++i)
            validate_one(i);
    } else {
        support::ThreadPool pool(workers);
        support::parallelFor(pool, functions.size(), validate_one);
    }

    // Merge in deterministic input order (not completion order).
    for (const smt::SolverStats &stats : per_function)
        report.solverStats += stats;
    report.resumedFunctions = 0;
    for (const llvmir::Function *fn : functions) {
        if (decided.count(fn->name) != 0)
            ++report.resumedFunctions;
    }
    if (cache_ != nullptr) {
        smt::CacheStats after = cache_->stats();
        report.cacheStats.hits = after.hits - cache_before.hits;
        report.cacheStats.misses = after.misses - cache_before.misses;
        report.cacheStats.modelHits =
            after.modelHits - cache_before.modelHits;
        report.cacheStats.evictions =
            after.evictions - cache_before.evictions;
        report.cacheStats.entries = after.entries;
    } else {
        report.cacheStats.hits = report.solverStats.cacheHits;
        report.cacheStats.misses = report.solverStats.cacheMisses;
        report.cacheStats.evictions = report.solverStats.cacheEvictions;
    }
    return report;
}

ModuleReport
validateModule(const llvmir::Module &module,
               const PipelineOptions &options)
{
    ModuleReport report;
    for (const llvmir::Function &fn : module.functions) {
        if (fn.isDeclaration())
            continue;
        report.functions.push_back(
            validateFunction(module, fn, options));
    }
    return report;
}

ModuleReport
validateSource(const std::string &llvm_source,
               const PipelineOptions &options)
{
    llvmir::Module module = llvmir::parseModule(llvm_source);
    llvmir::verifyModuleOrThrow(module);
    return validateModule(module, options);
}

} // namespace keq::driver
