#ifndef KEQ_SMT_SOLVER_H
#define KEQ_SMT_SOLVER_H

/**
 * @file
 * Solver interface used by the KEQ checker.
 *
 * The checker only needs two questions answered: satisfiability of a
 * conjunction, and validity of an implication. Keeping the interface this
 * small lets the checker stay agnostic of the backing solver, mirroring
 * how the paper's K framework fronts Z3.
 */

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/smt/term.h"
#include "src/support/failure.h"

namespace keq::smt {

/** Outcome of a satisfiability query. */
enum class SatResult { Sat, Unsat, Unknown };

/**
 * The backend a solver stack solves on. Default is the incremental
 * lane (IncrementalZ3Solver: the previous query's scopes stay warm);
 * Cold takes a fresh Z3Solver scope per query. ExecutionOptions::
 * optimizeQueries picks Default, its unoptimized reference stack Cold.
 */
enum class Lane : uint8_t { Default, Cold };

const char *satResultName(SatResult result);

/**
 * How a SolverStats counter behaves when one solver layer folds the
 * work of the layer below it into its own stats.
 */
enum class CounterClass : uint8_t {
    /**
     * Logical queries and their answers. Every layer counts its own
     * checkSat calls, so a retry never inflates them: never folded.
     */
    Verdict,
    /**
     * Work of the preprocessing stages (rewrite, slice, cache) and a
     * layer's own wall time. Retrying decorators fold it
     * (foldNonVerdictStats); a CachingSolver does not, because it counts
     * its own stages and times its own backend calls.
     */
    Stage,
    /**
     * Work below the cache: backend checks, recovery and transport.
     * Every layer folds it.
     */
    Backend,
};

/** One row of the counter table: its --stats-json key and its class. */
struct CounterInfo
{
    const char *key;
    CounterClass cls;
};

/** Aggregate statistics over the life of a solver. */
struct SolverStats
{
    uint64_t queries = 0;
    uint64_t sat = 0;
    uint64_t unsat = 0;
    uint64_t unknown = 0;
    double totalSeconds = 0.0;

    // Memoization counters; nonzero only when a CachingSolver fronts the
    // backend. For a CachingSolver every query is resolved by exactly one
    // stage, so
    //   rewriteResolved + sliceResolved + cacheHits + cacheMisses
    //     == queries.
    uint64_t cacheHits = 0;
    uint64_t cacheMisses = 0;
    uint64_t cacheEvictions = 0;

    // Per-stage counters of the query optimization stack
    // (simplify -> slice -> cache -> incremental Z3); all zero for the
    // unoptimized stack.
    uint64_t rewriteResolved = 0; ///< queries decided by the rewrite engine
    uint64_t rewriteApplications = 0; ///< individual rewrite rule firings
    uint64_t sliceResolved = 0;   ///< queries decided by COI slicing alone
    uint64_t slicedAssertions = 0; ///< assertions pruned before solving
    uint64_t incrementalReused = 0; ///< assertions reused from a live prefix
    uint64_t incrementalSolves = 0; ///< backend checks reusing >= 1 assertion
    uint64_t incrementalFallbacks = 0; ///< Unknown -> fresh-solver retries
    uint64_t coldSolves = 0;      ///< backend checks with no reused prefix

    // Fault-tolerance counters (GuardedSolver / FaultInjectingSolver).
    // These count *recovery work*, never logical queries: the verdict
    // counters above stay byte-identical whether or not faults occurred,
    // which is what lets the chaos suite diff canonical summaries.
    uint64_t watchdogInterrupts = 0; ///< deadline/cancel interrupts fired
    uint64_t guardedRetries = 0;     ///< same-rung retry attempts
    uint64_t guardedEscalations = 0; ///< moves to the fallback rung
    uint64_t escalatedResolved = 0;  ///< queries decided by a fallback rung
    uint64_t solverCrashes = 0;      ///< backend exceptions absorbed
    uint64_t faultsInjected = 0;     ///< faults the injection harness fired

    // Process-isolation counters (SandboxSolver / WorkerSupervisor).
    // Like the fault-tolerance block these count recovery work and IPC
    // overhead, never logical queries.
    uint64_t workerCrashes = 0;     ///< worker process deaths observed
    uint64_t workerRestarts = 0;    ///< workers respawned after a death
    uint64_t heartbeatTimeouts = 0; ///< queries killed for a silent worker
    uint64_t wireBytesSent = 0;     ///< protocol bytes shipped to workers
    uint64_t wireBytesReceived = 0; ///< protocol bytes read from workers

    SolverStats &operator+=(const SolverStats &rhs);
    /** Field-wise difference; used to attribute counters to one check. */
    SolverStats operator-(const SolverStats &rhs) const;
};

/**
 * The counter table: calls `fn(info, stats.field...)` once per
 * SolverStats counter, passing the same field of every @p stats
 * argument; @p fn takes a CounterInfo as its first parameter. It is
 * the one list of the counters: the arithmetic, the folds, the wire
 * codec and --stats-json are all generated from it.
 *
 * The order is the protocol-v6 wire order: the 26 uint64_t counters,
 * then totalSeconds (the one double). Reordering, adding or removing a
 * row changes the wire layout and needs a protocol version bump.
 */
template <typename Fn, typename... Stats>
constexpr void
forEachCounter(Fn &&fn, Stats &...stats)
{
    using enum CounterClass;
    fn({"queries", Verdict}, stats.queries...);
    fn({"sat", Verdict}, stats.sat...);
    fn({"unsat", Verdict}, stats.unsat...);
    fn({"unknown", Verdict}, stats.unknown...);
    fn({"cache_hits", Stage}, stats.cacheHits...);
    fn({"cache_misses", Stage}, stats.cacheMisses...);
    fn({"cache_evictions", Stage}, stats.cacheEvictions...);
    fn({"rewrite_resolved", Stage}, stats.rewriteResolved...);
    fn({"rewrite_applications", Stage}, stats.rewriteApplications...);
    fn({"slice_resolved", Stage}, stats.sliceResolved...);
    fn({"sliced_assertions", Stage}, stats.slicedAssertions...);
    fn({"incremental_reused", Backend}, stats.incrementalReused...);
    fn({"incremental_solves", Backend}, stats.incrementalSolves...);
    fn({"incremental_fallbacks", Backend}, stats.incrementalFallbacks...);
    fn({"cold_solves", Backend}, stats.coldSolves...);
    fn({"watchdog_interrupts", Backend}, stats.watchdogInterrupts...);
    fn({"guarded_retries", Backend}, stats.guardedRetries...);
    fn({"guarded_escalations", Backend}, stats.guardedEscalations...);
    fn({"escalated_resolved", Backend}, stats.escalatedResolved...);
    fn({"solver_crashes", Backend}, stats.solverCrashes...);
    fn({"faults_injected", Backend}, stats.faultsInjected...);
    fn({"worker_crashes", Backend}, stats.workerCrashes...);
    fn({"worker_restarts", Backend}, stats.workerRestarts...);
    fn({"heartbeat_timeouts", Backend}, stats.heartbeatTimeouts...);
    fn({"wire_bytes_sent", Backend}, stats.wireBytesSent...);
    fn({"wire_bytes_received", Backend}, stats.wireBytesReceived...);
    fn({"total_seconds", Stage}, stats.totalSeconds...);
}

/**
 * Adds every field of @p delta to @p into EXCEPT the Verdict-class
 * counters (queries, sat, unsat, unknown). Decorators that retry or
 * escalate (GuardedSolver, FaultInjectingSolver) count one logical query
 * per checkSat call themselves, but must still surface the work their
 * rungs performed — cache traffic, incremental reuse, injected faults,
 * backend seconds — without inflating the query/verdict counts that the
 * canonical (byte-identical) summaries are built from.
 */
void foldNonVerdictStats(SolverStats &into, const SolverStats &delta);

class Assignment; // evaluator.h

/**
 * Thrown when a backend solver fails abnormally (a z3::exception or an
 * injected crash) rather than answering Unknown. The GuardedSolver
 * absorbs these while a rung remains; only exhausted rungs let one
 * escape to the checker, which classifies it
 * FailureKind::SolverCrash.
 */
class SolverCrashError : public std::runtime_error
{
  public:
    explicit SolverCrashError(const std::string &message)
        : std::runtime_error(message)
    {}
};

/**
 * Maps a backend's reason_unknown() string onto the taxonomy. Z3 reports
 * "timeout"/"canceled"/"max. memory exceeded" style reasons; anything
 * unrecognized is an honest SolverUnknown (incompleteness).
 */
FailureKind classifyUnknownReason(const std::string &reason);

/** Abstract satisfiability oracle. */
class Solver
{
  public:
    virtual ~Solver() = default;

    /** Checks satisfiability of the conjunction of @p assertions. */
    virtual SatResult checkSat(const std::vector<Term> &assertions) = 0;

    /**
     * Asks the solver to retain the satisfying model of each Sat answer
     * so that lastModel() can surface it. Off by default: extracting
     * models costs time the plain pipeline never recoups. Backends
     * without model support may ignore this.
     */
    virtual void enableModelCapture(bool enabled) { (void)enabled; }

    /**
     * Copies the model of the most recent Sat answer into @p out.
     *
     * @return false when no model is available (capture disabled, last
     *         answer not Sat, or the backend cannot produce models).
     */
    virtual bool lastModel(Assignment *out) const
    {
        (void)out;
        return false;
    }

    /**
     * Proves `hypothesis => conclusion` by checking that
     * `hypothesis && !conclusion` is unsatisfiable.
     *
     * @return true only when the implication is proven valid; Unknown
     *         results (e.g. timeouts) report false.
     */
    bool proveImplication(Term hypothesis, Term conclusion);

    /** Per-query timeout; 0 means no limit. */
    virtual void setTimeoutMs(unsigned timeout_ms) = 0;

    /**
     * Soft per-query memory budget in MB; 0 means no limit. Backends
     * that cannot enforce one may ignore it.
     */
    virtual void setMemoryBudgetMb(unsigned budget_mb)
    {
        (void)budget_mb;
    }

    /**
     * Asks the backend to abandon the in-flight checkSat as soon as
     * possible (the interrupted query returns Unknown). Must be safe to
     * call from another thread — this is the watchdog's lever. Decorators
     * forward to their backend; the default is a no-op for backends with
     * nothing to interrupt.
     */
    virtual void interruptQuery() {}

    /**
     * Backend's explanation of the most recent Unknown answer (e.g.
     * Z3's reason_unknown()); empty when unavailable or the last answer
     * was definite.
     */
    virtual std::string lastUnknownReason() const { return {}; }

    /**
     * Taxonomy classification of the most recent checkSat: None for a
     * definite answer, otherwise why the query failed. Decorators that
     * retry/escalate (GuardedSolver) report the classification of the
     * final attempt.
     */
    virtual FailureKind lastFailureKind() const
    {
        return FailureKind::None;
    }

    virtual const SolverStats &stats() const = 0;

  protected:
    /** Factory that owns the terms this solver receives. */
    virtual TermFactory &factory() = 0;
};

} // namespace keq::smt

#endif // KEQ_SMT_SOLVER_H
