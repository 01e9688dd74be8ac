#ifndef KEQ_SMT_Z3_SOLVER_H
#define KEQ_SMT_Z3_SOLVER_H

/**
 * @file
 * The Z3 backends: one core, two ways to reuse solver state.
 *
 * Z3Backend is the shared core. It owns the lazily created z3::context
 * and lowering, builds every solver the same way — logic-specialized
 * `z3::solver(ctx, "QF_AUFBV")` with the limits applied —
 * asserts each assertion in a scope of its own, then checks. It
 * captures models, classifies Unknowns, drops the whole context after
 * any z3::exception (a stale interrupt would otherwise make every
 * later push throw "canceled") and dumps slow queries. Naming the
 * logic and pushing a scope keep Z3 on its specialized incremental
 * engine; a bare `z3::solver(ctx)` checked without a scope runs Z3's
 * generic one-shot tactic path, which costs several times as much on
 * the checker's query mix.
 *
 * Z3Solver ("cold") takes a fresh solver and scope per query: no state
 * but the context's lowering memo survives between queries (and not
 * even that after an Unknown), which makes it the reference oracle of
 * the tests and the guard's fallback rung. IncrementalZ3Solver
 * (incremental_z3_solver.h) pops back to the longest prefix shared with the previous query.
 */

#include <atomic>
#include <optional>
#include <string>
#include <vector>

#include "src/smt/evaluator.h"
#include "src/smt/lazy_impl.h"
#include "src/smt/solver.h"
#include "src/smt/term_factory.h"

namespace keq::smt {

/** The shared Z3 core; see the file comment. */
class Z3Backend : public Solver
{
  public:
    ~Z3Backend() override;

    SatResult checkSat(const std::vector<Term> &assertions) override;
    void setTimeoutMs(unsigned timeout_ms) override;
    void setMemoryBudgetMb(unsigned budget_mb) override;

    /**
     * Fires Z3_interrupt on the owning context; safe from another
     * thread (the guard's watchdog). The in-flight check returns
     * Unknown, whatever Z3 answered, and is not retried. A no-op before
     * the first query has created the context. An interrupt that lands between
     * checks stays pending and costs the next query (a SolverCrashError
     * that drops the context), never the ones after it.
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
    /**
     * @p incremental: reuse the previous query's scopes (see
     * IncrementalZ3Solver) instead of a fresh solver per query.
     */
    Z3Backend(TermFactory &factory, bool incremental);

    TermFactory &factory() override { return factory_; }

  private:
    struct Impl; // hides <z3++.h> from clients

    TermFactory &factory_;
    LazyImpl<Impl> impl_; ///< created by the first checkSat
    /** Set by interruptQuery(), cleared when a query starts. */
    std::atomic<bool> interruptRequested_{false};
    bool incremental_;
    SolverStats stats_;
    unsigned timeoutMs_ = 0;
    unsigned memoryBudgetMb_ = 0;
    bool captureModels_ = false;
    std::optional<Assignment> lastModel_;
    std::string lastUnknownReason_;
    FailureKind lastFailure_ = FailureKind::None;
};

/** Fresh solver and scope per query on the shared core. */
class Z3Solver final : public Z3Backend
{
  public:
    explicit Z3Solver(TermFactory &factory)
        : Z3Backend(factory, /*incremental=*/false)
    {}
};

} // namespace keq::smt

#endif // KEQ_SMT_Z3_SOLVER_H
