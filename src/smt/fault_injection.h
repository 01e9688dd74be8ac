#ifndef KEQ_SMT_FAULT_INJECTION_H
#define KEQ_SMT_FAULT_INJECTION_H

/**
 * @file
 * Deterministic fault-injection decorator for chaos testing.
 *
 * Wraps any Solver and injects backend misbehavior — spurious Unknowns,
 * timeouts, crashes, slowdowns, and interruptible hangs — on a schedule
 * that is a pure function of (plan seed, call index) via
 * support::Rng::stream. Determinism is what makes the chaos suite's
 * headline assertion possible: a faulted run and a clean run of the
 * pipeline must produce byte-identical canonical summaries, which only
 * means something if the faults themselves are reproducible.
 *
 * Faults are *transient*: they key on the call counter, so the
 * GuardedSolver's retry of the same query draws a fresh schedule slot
 * and (usually) passes through. The guard's fallback rung is never
 * injected, so under a plan with rates high enough to exhaust every
 * retry on the primary that rung decides the query.
 */

#include <atomic>
#include <cstdint>

#include "src/smt/solver.h"

namespace keq::smt {

/** What to inject and how often; rates are percentages per call. */
struct FaultPlan
{
    uint64_t seed = 0; ///< 0 disables all injection.
    unsigned unknownPercent = 0;  ///< answer Unknown (reason "injected")
    unsigned timeoutPercent = 0;  ///< answer Unknown (reason "timeout")
    unsigned memoryPercent = 0;   ///< answer Unknown (memory reason)
    unsigned crashPercent = 0;    ///< throw SolverCrashError
    unsigned slowdownPercent = 0; ///< sleep slowdownMs, then solve
    unsigned hangPercent = 0;     ///< block until interruptQuery()
    unsigned slowdownMs = 20;
    /** Hard cap on an injected hang, so a watchdog-less test cannot
     *  deadlock; the hang still answers Unknown ("timeout"). */
    unsigned hangCapMs = 2000;

    bool
    enabled() const
    {
        return seed != 0 &&
               (unknownPercent | timeoutPercent | memoryPercent |
                crashPercent | slowdownPercent | hangPercent) != 0;
    }

    /** Plan for a sibling component, derived deterministically. */
    FaultPlan
    derive(uint64_t stream_index) const
    {
        FaultPlan child = *this;
        if (seed != 0)
            child.seed = seed * 0x9e3779b97f4a7c15ull + stream_index;
        return child;
    }
};

/** Solver decorator that injects faults per the plan. */
class FaultInjectingSolver : public Solver
{
  public:
    /**
     * Non-owning: @p backend must outlive this decorator (e.g. a
     * CachingSolver on the caller's stack).
     */
    FaultInjectingSolver(TermFactory &factory, Solver &backend,
                         FaultPlan plan);

    SatResult checkSat(const std::vector<Term> &assertions) override;
    void setTimeoutMs(unsigned timeout_ms) override;
    void setMemoryBudgetMb(unsigned budget_mb) override;
    void interruptQuery() override;
    void enableModelCapture(bool enabled) override;
    bool lastModel(Assignment *out) const override;
    std::string lastUnknownReason() const override;
    FailureKind lastFailureKind() const override;
    const SolverStats &stats() const override { return stats_; }

    Solver &backend() { return *backend_; }

  protected:
    TermFactory &factory() override { return factory_; }

  private:
    TermFactory &factory_;
    Solver *backend_;
    FaultPlan plan_;
    uint64_t callIndex_ = 0;
    SolverStats stats_;
    std::string lastUnknownReason_;
    FailureKind lastFailure_ = FailureKind::None;
    std::atomic<bool> interrupted_{false};
};

} // namespace keq::smt

#endif // KEQ_SMT_FAULT_INJECTION_H
