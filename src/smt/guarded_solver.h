#ifndef KEQ_SMT_GUARDED_SOLVER_H
#define KEQ_SMT_GUARDED_SOLVER_H

/**
 * @file
 * Fault-tolerant solver front: watchdog, retries and one fallback rung.
 *
 * Real ISel corpora wedge solvers (paper Section 6): Z3's soft timeout
 * is best-effort and a pathological query can ignore it for minutes,
 * a z3::exception kills the whole function validation, and a transient
 * Unknown from the incremental backend wastes a verdict the cold solver
 * could have produced. The GuardedSolver makes every query terminate
 * with a *classified* outcome:
 *
 *  - **Watchdog.** Each attempt runs under a hard wall-clock deadline
 *    enforced by a dedicated thread that fires the backend's
 *    interruptQuery() (Z3_interrupt) when the deadline or a cooperative
 *    cancellation token trips — and keeps re-firing until the attempt
 *    returns, because an interrupt that lands before the backend has
 *    created its Z3 context is a no-op. A definite answer from an
 *    attempt the watchdog or a cancel interrupted fails that attempt:
 *    an interrupted Z3 check can answer wrongly.
 *
 *  - **Fallback rung.** On a failed attempt (Unknown or crash) the
 *    query is retried a bounded number of times on the primary, then
 *    escalated to the one optional fallback rung, which gets the same
 *    number of attempts. The rung is built lazily from a
 *    caller-supplied factory, so a healthy run never pays for it. It is
 *    conventionally pristine (no fault injection, no optimization),
 *    which is what makes chaos runs converge to the clean run's
 *    verdicts. Retries follow at once: no two stacks share a Z3 context
 *    or a worker process, so there is nothing to back off from.
 *
 *  - **Classified failure.** When every rung is exhausted the query
 *    returns Unknown and lastFailureKind() says why (Timeout,
 *    MemoryBudget, SolverUnknown, SolverCrash, Cancelled) — crashes are
 *    absorbed, never propagated, so one wedged query costs one verdict,
 *    not a worker.
 *
 * Stats contract: `queries` counts logical checkSat calls and
 * sat/unsat/unknown count final outcomes — identical whether zero or
 * fifty retries happened, so canonical summaries stay byte-identical
 * under injected faults. All recovery work lands in the dedicated
 * counters (watchdogInterrupts, guardedRetries, guardedEscalations,
 * escalatedResolved, solverCrashes) and rung work (cache hits,
 * incremental reuse, faultsInjected...) is folded in via
 * foldNonVerdictStats.
 */

#include <chrono>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "src/smt/solver.h"
#include "src/support/cancellation.h"

namespace keq::smt {

/** Tuning for GuardedSolver; defaults keep the guard nearly invisible. */
struct GuardedSolverOptions
{
    /** Hard per-attempt wall deadline in ms; 0 = no watchdog deadline
     *  (the watchdog still polls the cancellation token if set). */
    unsigned deadlineMs = 0;
    /** Extra attempts on the same rung after the first fails. */
    unsigned retries = 1;
    /** Cooperative cancellation; polled by the watchdog mid-query. */
    support::CancellationToken cancel;
};

/** Watchdogged retries over a primary solver and one fallback rung. */
class GuardedSolver : public Solver
{
  public:
    /** Builds the fallback rung on first use. */
    using RungFactory = std::function<std::unique_ptr<Solver>()>;

    /**
     * @param factory Factory owning the terms.
     * @param primary Rung 0; must outlive this object.
     * @param fallback Builds rung 1 on first escalation, which inherits
     *                 the current timeout/memory/model settings; null
     *                 means the primary is the only rung.
     */
    GuardedSolver(TermFactory &factory, Solver &primary,
                  RungFactory fallback, GuardedSolverOptions options);
    ~GuardedSolver() override;

    SatResult checkSat(const std::vector<Term> &assertions) override;
    void setTimeoutMs(unsigned timeout_ms) override;
    void setMemoryBudgetMb(unsigned budget_mb) override;
    void interruptQuery() override;

    void enableModelCapture(bool enabled) override;
    bool lastModel(Assignment *out) const override;
    std::string lastUnknownReason() const override;
    FailureKind lastFailureKind() const override;
    const SolverStats &stats() const override { return stats_; }

    /** Is there a fallback rung above the primary, built or not? */
    bool hasFallback() const { return fallbackFactory_ != nullptr; }
    const GuardedSolverOptions &options() const { return options_; }

  protected:
    TermFactory &factory() override { return factory_; }

  private:
    Solver *rungSolver(unsigned rung);
    void ensureWatchdog();
    void armWatchdog(Solver *target);
    /** @return true when the watchdog fired during this attempt. */
    bool disarmWatchdog();
    void watchdogLoop();

    TermFactory &factory_;
    Solver &primary_;
    RungFactory fallbackFactory_;
    std::unique_ptr<Solver> fallback_; // lazily built
    GuardedSolverOptions options_;
    SolverStats stats_;

    unsigned timeoutMs_ = 0;
    unsigned memoryBudgetMb_ = 0;
    bool captureModels_ = false;
    Solver *lastAnswering_ = nullptr;
    std::string lastUnknownReason_;
    FailureKind lastFailure_ = FailureKind::None;

    // Watchdog state; every field below is guarded by watchMutex_.
    std::thread watchdog_;
    std::mutex watchMutex_;
    std::condition_variable watchCv_;
    Solver *watchTarget_ = nullptr;
    std::chrono::steady_clock::time_point watchDeadline_;
    bool watchHasDeadline_ = false;
    bool watchArmed_ = false;
    bool watchFired_ = false;
    bool watchShutdown_ = false;
    uint64_t watchGeneration_ = 0;
};

} // namespace keq::smt

#endif // KEQ_SMT_GUARDED_SOLVER_H
