#ifndef KEQ_DRIVER_PIPELINE_H
#define KEQ_DRIVER_PIPELINE_H

/**
 * @file
 * The end-to-end Translation Validation pipeline (paper Figure 5):
 *
 *   LLVM IR --ISel+hints--> Virtual x86
 *        \                     /
 *         --> VC generator -->  sync points --> KEQ --> verdict
 *
 * One Pipeline validates a module function by function (function
 * granularity per Section 4.5), producing a report with the same outcome
 * categories as the paper's Figure 6: Succeeded / timeout / out-of-memory
 * / other.
 *
 * Function granularity makes validation embarrassingly parallel:
 * Pipeline::runParallel fans the functions out over a fixed thread pool.
 * Thread-ownership model: every per-function validation creates its own
 * TermFactory, semantics, and Z3 backend (hash-consing stays
 * thread-local; no locks on the hot path); the only shared state is the
 * memoizing smt::QueryCache, which is sharded and mutex-guarded.
 * Reports are merged back in deterministic input order, so serial and
 * parallel runs produce identical ordered verdicts.
 */

#include <memory>
#include <string>
#include <vector>

#include "src/isel/isel.h"
#include "src/keq/checker.h"
#include "src/llvmir/ir.h"
#include "src/sem/sync_point.h"
#include "src/smt/caching_solver.h"
#include "src/smt/fault_injection.h"
#include "src/smt/sandbox.h"
#include "src/support/cancellation.h"
#include "src/support/journal.h"
#include "src/vcgen/vcgen.h"
#include "src/vx86/mir.h"

namespace keq::driver {

/** Figure 6 outcome categories (plus Unsupported, the paper's excluded
 *  840 functions). */
enum class Outcome : uint8_t {
    Succeeded,
    Timeout,
    OutOfMemory,
    Other,
    Unsupported,
};

const char *outcomeName(Outcome outcome);

/** Pipeline configuration. */
struct PipelineOptions
{
    isel::IselOptions isel;
    vcgen::VcOptions vc;
    checker::CheckerConfig checker;
    /**
     * Cap (characters) on the textual sync-point specification; exceeding
     * it aborts with OutOfMemory before checking, emulating the K
     * parser's memory blow-up on large VC specs (Section 5.1).
     * 0 = unlimited.
     */
    size_t specSizeBudget = 0;
};

/** How a Pipeline executes and memoizes (orthogonal to what it checks). */
struct ExecutionOptions
{
    /**
     * Worker threads for runParallel; 0 = one per hardware thread.
     * Validation is CPU-bound, so the effective worker count is capped
     * at the host's hardware parallelism (and at the function count).
     */
    unsigned jobs = 1;
    /**
     * The one stack switch. true is the optimized stack: the rewrite
     * engine, cone-of-influence slicer, verdict cache and model reuse
     * in front of the incremental "default" lane. false is the
     * reference stack: no front and no cache, every query on the
     * "cold" lane (a fresh solver per query), in process and sandboxed
     * alike (sandbox workers run no front of their own). Both give the
     * same verdicts (asserted by the differential and conformance
     * tests).
     */
    bool optimizeQueries = true;

    // --- Fault tolerance (smt::GuardedSolver front) ------------------

    /**
     * Hard per-query wall deadline in ms enforced by the watchdog
     * thread (Z3's soft timeout is best-effort; this one interrupts).
     * 0 disables the deadline; the watchdog still serves cancellation.
     */
    unsigned deadlineMs = 0;
    /** Extra same-rung attempts before escalating a failed query. */
    unsigned solverRetries = 1;
    /** Per-query Z3 memory budget in MB; 0 = unlimited. */
    unsigned solverMemoryMb = 0;
    /** Query-cache byte budget in MB (LRU eviction); 0 = unlimited. */
    size_t cacheMemoryMb = 512;
    /**
     * Fault-injection plan for chaos testing; disabled by default.
     * Injection wraps the primary only — the guard's pristine fallback
     * rung never misbehaves, which is what lets a chaos run converge
     * to the clean run's exact verdicts.
     */
    smt::FaultPlan faults;
    /** Cooperative cancellation for the whole run (SIGINT). */
    support::CancellationToken cancel;

    // --- Trust-but-verify auditing (smt::CachingSolver) --------------

    /**
     * Fraction of *unaudited* cache hits (verdicts preloaded from a
     * persisted journal) to independently re-check before serving:
     * stored Sat by Evaluator model replay, stored Unsat by a pristine
     * solver. 0 (default) disables; the daemon's --audit-rate sets it.
     * A mismatch quarantines the entry and the query re-solves fresh,
     * so enabling audits never changes a verdict.
     */
    double auditRate = 0.0;
    /** Salt for the deterministic per-key audit sample. */
    uint64_t auditSeed = 0;
    /**
     * Invoked when an audit contradicts a stored verdict (after the
     * quarantine, before the fresh solve). The daemon hooks journal
     * tombstoning and typed AuditMismatch logging here.
     */
    std::function<void(const std::string &key, smt::SatResult stored,
                       smt::SatResult recheck)>
        onAuditMismatch;
    /**
     * Externally-owned verdict cache the optimized stack validates
     * through instead of a cache of its own (the reference stack has
     * none). The validation daemon hands every Pipeline the one
     * store-backed cache so verdicts are shared across clients and
     * runs.
     */
    std::shared_ptr<smt::QueryCache> externalCache;
    /**
     * Journal per-function verdicts to this path as they are decided
     * (append-only, crash tolerant). Empty disables checkpointing.
     */
    std::string checkpointPath;
    /**
     * Load checkpointPath first and skip every decided function. The
     * journal must match the module (fingerprint check) or the run
     * fails loudly. Without this flag an existing checkpoint file is
     * overwritten.
     */
    bool resume = false;
    /**
     * Durability policy of the checkpoint journal: Off (default)
     * flushes into the kernel per record (crash-of-this-process safe),
     * Batch fsyncs every JournalWriter::kDefaultBatchInterval records,
     * Record fsyncs every record (power-loss safe, slowest).
     */
    support::FsyncPolicy checkpointFsync = support::FsyncPolicy::Off;

    // --- Process isolation (smt::SandboxSolver) ----------------------

    /**
     * Run every solver query in a sandboxed keq-solver-worker child
     * process under hard rlimits. When the worker binary cannot be
     * found the pipeline warns once and degrades to the in-process
     * stack rather than failing the run.
     */
    bool sandbox = false;
    /** Worker pool size; 0 sizes the pool to the job count. */
    unsigned sandboxWorkers = 0;
    /** Hard RLIMIT_AS per worker in MB; 0 = uncapped. */
    unsigned workerMemoryMb = 0;
    /** Explicit worker binary; empty = discoverWorkerBinary(). */
    std::string workerPath;
    /**
     * Chaos monkey: per-tick probability that each busy worker gets a
     * real SIGKILL/SIGSEGV (sandbox integration tests). 0 disables.
     */
    double sandboxChaosKillRate = 0.0;
    uint64_t sandboxChaosSeed = 0x5eed;
};

/** Per-function validation report. */
struct FunctionReport
{
    std::string function;
    Outcome outcome = Outcome::Other;
    checker::Verdict verdict;
    std::string detail;
    double seconds = 0.0;
    size_t llvmInstructions = 0;
    size_t x86Instructions = 0;
    size_t syncPointCount = 0;
    size_t specTextSize = 0;

    /**
     * Timing-free rendering of everything deterministic in this report.
     * Serial and parallel runs of the same module must produce identical
     * canonical summaries (asserted in tests); wall-clock fields
     * (seconds, solver seconds) are excluded because they legitimately
     * vary run to run.
     */
    std::string canonicalSummary() const;
};

/** Whole-module validation report (one Figure 6 table worth of data). */
struct ModuleReport
{
    std::vector<FunctionReport> functions;
    /** Solver statistics aggregated over all functions in input order. */
    smt::SolverStats solverStats;
    /** Query-cache counters (all zero when caching is disabled). */
    smt::CacheStats cacheStats;
    /** Functions restored from a checkpoint instead of recomputed. */
    size_t resumedFunctions = 0;
    /** Torn/corrupt checkpoint records dropped during resume. */
    size_t droppedCheckpointRecords = 0;

    size_t countOutcome(Outcome outcome) const;
    /** Figure 6-style table. */
    std::string renderTable() const;
    /** Concatenated FunctionReport::canonicalSummary lines. */
    std::string canonicalSummary() const;
};

/**
 * The validation engine: owns the configuration and the (optional)
 * memoizing solver cache, and runs a module either serially or fanned
 * out over a thread pool. The cache persists across run calls, so
 * revalidating a module (or validating similar modules) through one
 * Pipeline gets warm-cache behaviour.
 */
class Pipeline
{
  public:
    explicit Pipeline(PipelineOptions options = {},
                      ExecutionOptions exec = {});

    /** Validates every defined function serially, in module order. */
    ModuleReport run(const llvmir::Module &module);

    /**
     * Validates every defined function on @p jobs worker threads
     * (defaults to ExecutionOptions::jobs). Reports come back in module
     * order regardless of completion order, and verdicts are identical
     * to a serial run's.
     */
    ModuleReport runParallel(const llvmir::Module &module);
    ModuleReport runParallel(const llvmir::Module &module, unsigned jobs);

    /** Validates one function through this Pipeline's cache. */
    FunctionReport validateFunction(const llvmir::Module &module,
                                    const llvmir::Function &fn);

    /**
     * Same, but with a per-call wall-deadline cap in milliseconds: the
     * effective watchdog deadline is the tighter of @p deadlineMsCap
     * and the configured ExecutionOptions::deadlineMs (0 = no cap).
     * The daemon uses this to propagate each job's *remaining* wall
     * budget into GuardedSolver, so a slow client cannot pin a worker
     * past its deadline.
     */
    FunctionReport validateFunction(const llvmir::Module &module,
                                    const llvmir::Function &fn,
                                    unsigned deadlineMsCap);

    const PipelineOptions &options() const { return options_; }
    const ExecutionOptions &execution() const { return exec_; }

    /** The shared cache; null on the reference stack. */
    const std::shared_ptr<smt::QueryCache> &cache() const
    {
        return cache_;
    }

    /**
     * The worker-pool supervisor backing --sandbox; created lazily on
     * the first run and reused afterwards (workers stay warm across
     * run calls). Null when the sandbox is off or degraded.
     */
    smt::WorkerSupervisor *sandboxSupervisor(unsigned workers);

  private:
    ModuleReport runWithJobs(const llvmir::Module &module, unsigned jobs);
    /** Validates @p fn on the stack @p exec and @p sandbox describe. */
    FunctionReport validateWith(const llvmir::Module &module,
                                const llvmir::Function &fn,
                                const ExecutionOptions &exec,
                                smt::WorkerSupervisor *sandbox,
                                smt::SolverStats *stats) const;

    PipelineOptions options_;
    ExecutionOptions exec_;
    std::shared_ptr<smt::QueryCache> cache_;
    std::unique_ptr<smt::WorkerSupervisor> supervisor_;
    bool sandboxDegraded_ = false;
};

/** Validates every defined function of an LLVM module. */
ModuleReport validateModule(const llvmir::Module &module,
                            const PipelineOptions &options);

/** Parses, verifies and validates LLVM assembly text. */
ModuleReport validateSource(const std::string &llvm_source,
                            const PipelineOptions &options);

/**
 * Validates a single function pair end-to-end; exposed for tests,
 * examples, and the bug-study benches. The machine function is produced
 * by ISel internally (with the configured bug, if any).
 */
FunctionReport validateFunction(const llvmir::Module &module,
                                const llvmir::Function &fn,
                                const PipelineOptions &options);

/**
 * Validates a *given* (LLVM, Virtual x86) function pair: VC generation
 * and KEQ checking only, no ISel. The machine function may come from
 * anywhere — in particular from the fuzz mutation engine, which runs the
 * real ISel and then rewrites its output; @p hints must describe the
 * lowering the machine function was derived from. options.isel is
 * ignored (the machine side is already fixed).
 */
FunctionReport validateFunctionPair(const llvmir::Module &module,
                                    const llvmir::Function &fn,
                                    vx86::MFunction mfn,
                                    const isel::FunctionHints &hints,
                                    const PipelineOptions &options);

/**
 * Validates the *register allocation* of one function: lowers with ISel,
 * allocates registers (src/regalloc), and runs the very same KEQ over
 * the pre-RA/post-RA Virtual x86 pair — the paper's "ongoing work"
 * experiment, with the allocator treated as a black box.
 */
FunctionReport validateRegAlloc(const llvmir::Module &module,
                                const llvmir::Function &fn,
                                const PipelineOptions &options);

} // namespace keq::driver

#endif // KEQ_DRIVER_PIPELINE_H
