#ifndef KEQ_KEQ_CHECKER_H
#define KEQ_KEQ_CHECKER_H

/**
 * @file
 * KEQ: the language-parametric symbolic equivalence checker (Section 3).
 *
 * The checker is the symbolic variant of Algorithm 1. It is parameterized
 * by two sem::Semantics implementations, an acceptability relation, and a
 * solver — it contains no knowledge of any particular language. For each
 * *source* synchronization point it:
 *
 *   1. seeds a pair of symbolic states related by the point's equality
 *      constraints (shared fresh variables; one shared memory variable);
 *   2. symbolically executes both sides to their cut-successors
 *      (function next_i of Algorithm 1, driven by the semantics' step);
 *   3. checks every feasible successor pair for inclusion in some
 *      synchronization point (line 9's symbolic set inclusion), using
 *      Z3-backed implication checks with the positive-form path-condition
 *      optimization for deterministic semantics (Section 3, "Optimizing
 *      SMT Queries").
 *
 * Undefined-behaviour error states are matched through the acceptability
 * relation (Section 4.6); when input-side UB licenses arbitrary output
 * behaviour the verdict degrades from Equivalent to Refines.
 *
 * Resource budgets reproduce the paper's evaluation failure categories:
 * exceeding the wall-clock budget yields a Timeout verdict and exceeding
 * the term-node budget (the analogue of the K parser/VC memory blow-up)
 * yields an OutOfMemory verdict.
 */

#include <cstdint>
#include <string>

#include "src/sem/acceptability.h"
#include "src/sem/semantics.h"
#include "src/sem/sync_point.h"
#include "src/smt/solver.h"
#include "src/support/cancellation.h"
#include "src/support/failure.h"

namespace keq::checker {

/** Checker configuration. */
struct CheckerConfig
{
    /** Record a proof log (one entry per discharged obligation). */
    bool collectProof = false;
    /** Check cut-simulation (refinement) only, not bisimulation. */
    bool refinementOnly = false;
    /** Use the positive-form disjunction for path-condition queries. */
    bool positiveFormOpt = true;
    /** Per-Z3-query timeout (ms); 0 = none. */
    unsigned solverTimeoutMs = 30000;
    /** Whole-run wall budget (seconds); 0 = unlimited. */
    double wallBudgetSeconds = 0.0;
    /** Term-node budget (memory proxy); 0 = unlimited. */
    size_t maxTermNodes = 0;
    /** Per-segment symbolic step budget (guards missing loop cuts). */
    size_t maxStepsPerSegment = 20000;
    /**
     * Cooperative cancellation (SIGINT, campaign shutdown): polled at
     * every budget check; a cancelled run ends with a Timeout verdict
     * classified FailureKind::Cancelled.
     */
    support::CancellationToken cancel;
};

/** Verdict categories (Figure 6's rows plus success flavours). */
enum class VerdictKind : uint8_t {
    Equivalent,   ///< Cut-bisimulation proven.
    Refines,      ///< Only cut-simulation proven (UB or refinement mode).
    NotValidated, ///< A proof obligation failed.
    Timeout,      ///< Wall budget exhausted (paper: "timeout").
    OutOfMemory,  ///< Node budget exhausted (paper: "out of memory").
};

const char *verdictKindName(VerdictKind kind);

/** Execution statistics of one check. */
struct CheckStats
{
    uint64_t pointsChecked = 0;
    uint64_t symbolicSteps = 0;
    uint64_t pairsExamined = 0;
    uint64_t solverQueries = 0;
    double solverSeconds = 0.0;
    double totalSeconds = 0.0;
    /**
     * Per-stage solver counters attributed to this check (the delta of
     * the solver's stats across the run). All optimization-stack fields
     * are zero when the plain Z3 backend is used directly.
     */
    smt::SolverStats solverStats;
};

/**
 * One discharged proof obligation: which pair of cut-successors was
 * placed inside which synchronization point, and how the implication was
 * discharged. The full log is the checkable certificate that the sync
 * point set is a cut-bisimulation (Theorem 8.1's premises, spelled out).
 */
struct ProofStep
{
    /** How an obligation was discharged. */
    enum class Method : uint8_t {
        Folded,        ///< Constant folding decided it (no solver).
        Solver,        ///< Z3 proved the implication.
        Acceptability, ///< Error-state pair related by the policy.
        Vacuous,       ///< Jointly unreachable pair.
    };

    std::string sourcePoint; ///< Sync point the segment started from.
    std::string targetPoint; ///< Point the pair was placed in ("" = n/a).
    std::string stateA;      ///< describe() of the A-side successor.
    std::string stateB;
    Method method = Method::Folded;
    /** The implication discharged, as "<hypothesis> ==> <conclusion>". */
    std::string obligation;
};

const char *proofMethodName(ProofStep::Method method);

/** Outcome of a validation run. */
struct Verdict
{
    VerdictKind kind = VerdictKind::NotValidated;
    /**
     * Structured failure classification. None for definite verdicts
     * (Equivalent/Refines/NotValidated); for Timeout/OutOfMemory it
     * says *why* the run could not decide — solver deadline, memory
     * budget, honest solver incompleteness, an absorbed solver crash,
     * or cooperative cancellation — replacing string matching on
     * `reason`.
     */
    FailureKind failure = FailureKind::None;
    std::string reason;
    /** True when input-side UB forced refinement-style matching. */
    bool usedRefinementFallback = false;
    CheckStats stats;
    /** Proof log; populated when CheckerConfig::collectProof is set. */
    std::vector<ProofStep> proof;

    /** Human-readable rendering of the proof log. */
    std::string renderProof() const;

    bool
    validated() const
    {
        return kind == VerdictKind::Equivalent ||
               kind == VerdictKind::Refines;
    }
};

/** The language-parametric equivalence checker. */
class Checker
{
  public:
    /**
     * @param sem_a Input-language semantics (side A).
     * @param sem_b Output-language semantics (side B). Must share sem_a's
     *              term factory.
     * @param acceptability State-compatibility policy (common.k analogue).
     * @param solver Satisfiability oracle over the shared factory.
     */
    Checker(sem::Semantics &sem_a, sem::Semantics &sem_b,
            const sem::Acceptability &acceptability, smt::Solver &solver,
            CheckerConfig config = {});

    /**
     * Validates one function pair against the given synchronization
     * points (the full symbolic Algorithm 1 main loop).
     */
    Verdict check(const std::string &function_a,
                  const std::string &function_b,
                  const sem::SyncPointSet &points);

  private:
    struct Impl;

    sem::Semantics &semA_;
    sem::Semantics &semB_;
    const sem::Acceptability &acceptability_;
    smt::Solver &solver_;
    CheckerConfig config_;
};

} // namespace keq::checker

#endif // KEQ_KEQ_CHECKER_H
