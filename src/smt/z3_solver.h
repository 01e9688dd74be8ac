#ifndef KEQ_SMT_Z3_SOLVER_H
#define KEQ_SMT_Z3_SOLVER_H

/**
 * @file
 * Z3-backed implementation of the Solver interface.
 *
 * Each query runs on a fresh z3::solver (no incrementality), matching the
 * paper's observation that the K/Z3 integration cold-starts every query —
 * and keeping query times directly comparable per call.
 */

#include <memory>
#include <optional>
#include <vector>

#include "src/smt/evaluator.h"
#include "src/smt/lazy_impl.h"
#include "src/smt/solver.h"
#include "src/smt/term_factory.h"

namespace keq::smt {

/** Translates terms to Z3 ASTs and discharges queries. */
class Z3Solver : public Solver
{
  public:
    /**
     * @p tuning: optional best-effort Z3 parameters applied to every
     * query's solver — how a portfolio lane differentiates itself.
     */
    explicit Z3Solver(TermFactory &factory, BackendTuning tuning = {});
    ~Z3Solver() override;

    SatResult checkSat(const std::vector<Term> &assertions) override;
    void setTimeoutMs(unsigned timeout_ms) override;
    void setMemoryBudgetMb(unsigned budget_mb) override;

    /**
     * Fires Z3_interrupt on the owning context; safe from another
     * thread (the watchdog). The in-flight check returns Unknown with
     * reason "canceled". A no-op before the first query has created
     * the context.
     */
    void interruptQuery() override;

    std::string lastUnknownReason() const override
    {
        return lastUnknownReason_;
    }

    FailureKind lastFailureKind() const override { return lastFailure_; }

    const SolverStats &stats() const override { return stats_; }

    void enableModelCapture(bool enabled) override
    {
        captureModels_ = enabled;
    }

    /**
     * Bitvector and bool constants of the last Sat model. Array
     * interpretations are not extracted: consumers re-verify reused
     * models by evaluation, under which unlisted bytes read as zero.
     */
    bool lastModel(Assignment *out) const override;

  protected:
    TermFactory &factory() override { return factory_; }

  private:
    struct Impl; // hides <z3++.h> from clients
    TermFactory &factory_;
    LazyImpl<Impl> impl_; ///< created by the first checkSat
    BackendTuning tuning_;
    SolverStats stats_;
    unsigned timeoutMs_ = 0;
    unsigned memoryBudgetMb_ = 0;
    bool captureModels_ = false;
    std::optional<Assignment> lastModel_;
    std::string lastUnknownReason_;
    FailureKind lastFailure_ = FailureKind::None;
};

} // namespace keq::smt

#endif // KEQ_SMT_Z3_SOLVER_H
