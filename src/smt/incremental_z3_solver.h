#ifndef KEQ_SMT_INCREMENTAL_Z3_SOLVER_H
#define KEQ_SMT_INCREMENTAL_Z3_SOLVER_H

/**
 * @file
 * Incremental Z3 backend (stage 3 of the optimization stack).
 *
 * Z3Solver cold-starts a fresh z3::solver per query, mirroring the
 * paper's K/Z3 integration. Checker queries, however, arrive in runs
 * that share long assertion prefixes: the cut-point hypothesis terms
 * accumulate in order, and successive proof obligations differ only in
 * the negated conclusion at the tail. IncrementalZ3Solver keeps one
 * z3::solver alive for its own lifetime (the pipeline builds one per
 * function validation) and mirrors the assertion list onto a
 * push/pop scope stack — one scope per directly-asserted assertion
 * (plain scoped asserts keep Z3's full preprocessing enabled, unlike an
 * assumption-literal encoding). A new query pops back to the longest
 * common prefix with the previous one and pushes only the suffix, so
 * the prefix's internalized clauses survive across queries.
 *
 * Soundness guardrail: an Unknown from the incremental solver is
 * retried on a fresh cold solver before being reported (and the
 * persistent solver is rebuilt), so incrementality can change timings
 * but not verdicts — the identity-vs-Z3Solver property tests assert
 * this on interleaved query sequences.
 */

#include <memory>
#include <optional>
#include <vector>

#include "src/smt/evaluator.h"
#include "src/smt/lazy_impl.h"
#include "src/smt/solver.h"
#include "src/smt/term_factory.h"

namespace keq::smt {

/** Persistent Z3 solver reusing shared assertion prefixes. */
class IncrementalZ3Solver : public Solver
{
  public:
    /**
     * @p tuning: optional best-effort Z3 parameters applied to the
     * persistent solver and every fallback — how a portfolio lane
     * differentiates itself.
     */
    explicit IncrementalZ3Solver(TermFactory &factory,
                                 BackendTuning tuning = {});
    ~IncrementalZ3Solver() override;

    SatResult checkSat(const std::vector<Term> &assertions) override;
    void setTimeoutMs(unsigned timeout_ms) override;
    void setMemoryBudgetMb(unsigned budget_mb) override;

    /**
     * Fires Z3_interrupt on the owning context; safe from another
     * thread. Note the Unknown guardrail below *re-enters* Z3 on a
     * fresh fallback solver after an interrupted check — a watchdog
     * that wants the whole call abandoned must keep re-interrupting
     * until checkSat returns (GuardedSolver's does). A no-op before
     * the first query has created the context.
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

#endif // KEQ_SMT_INCREMENTAL_Z3_SOLVER_H
