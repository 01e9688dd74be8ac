#include "src/keq/checker.h"

#include <algorithm>
#include <optional>
#include <set>

#include "src/support/diagnostics.h"
#include "src/support/stopwatch.h"

namespace keq::checker {

using sem::ErrorKind;
using sem::Status;
using sem::SymbolicState;
using sem::SyncConstraint;
using sem::SyncKind;
using sem::SyncPoint;
using sem::SyncPointSet;
using smt::SatResult;
using smt::Term;

const char *
verdictKindName(VerdictKind kind)
{
    switch (kind) {
      case VerdictKind::Equivalent: return "equivalent";
      case VerdictKind::Refines: return "refines";
      case VerdictKind::NotValidated: return "not-validated";
      case VerdictKind::Timeout: return "timeout";
      case VerdictKind::OutOfMemory: return "out-of-memory";
    }
    return "?";
}

const char *
proofMethodName(ProofStep::Method method)
{
    switch (method) {
      case ProofStep::Method::Folded: return "folded";
      case ProofStep::Method::Solver: return "solver";
      case ProofStep::Method::Acceptability: return "acceptability";
      case ProofStep::Method::Vacuous: return "vacuous";
    }
    return "?";
}

std::string
Verdict::renderProof() const
{
    std::string out;
    for (const ProofStep &step : proof) {
        out += "[" + step.sourcePoint + " -> " +
               (step.targetPoint.empty() ? "-" : step.targetPoint) +
               "] (" + proofMethodName(step.method) + ") " +
               step.stateA + "  ~  " + step.stateB;
        if (!step.obligation.empty())
            out += "\n    " + step.obligation;
        out += "\n";
    }
    return out;
}

namespace {

/** Thrown when a resource budget is exhausted mid-run. */
struct BudgetExceeded
{
    VerdictKind kind;
    FailureKind failure;
    std::string what;
};

/** Verdict category a failure classification degrades the run to. */
VerdictKind
verdictKindFor(FailureKind failure)
{
    // A worker that died breaching its hard memory cap is the same
    // Figure 6 category as an in-process budget exhaustion.
    return failure == FailureKind::MemoryBudget ||
                   failure == FailureKind::WorkerOom
               ? VerdictKind::OutOfMemory
               : VerdictKind::Timeout;
}

enum class Side : uint8_t { A, B };

/** One full validation run (per function pair). */
class Run
{
  public:
    Run(sem::Semantics &sem_a, sem::Semantics &sem_b,
        const sem::Acceptability &acceptability, smt::Solver &solver,
        const CheckerConfig &config, const std::string &fn_a,
        const std::string &fn_b, const SyncPointSet &points)
        : semA_(sem_a), semB_(sem_b), acceptability_(acceptability),
          solver_(solver), config_(config), fnA_(fn_a), fnB_(fn_b),
          points_(points), tf_(sem_a.factory())
    {}

    Verdict
    run()
    {
        solver_.setTimeoutMs(config_.solverTimeoutMs);
        smt::SolverStats before = solver_.stats();
        Verdict verdict;
        try {
            std::optional<std::string> failure;
            // Algorithm 1, main: check every (source) point of P.
            for (const SyncPoint &point : points_.points) {
                if (!point.isSource())
                    continue;
                ++stats_.pointsChecked;
                failure = checkPoint(point);
                if (failure)
                    break;
            }
            if (failure) {
                verdict.kind = VerdictKind::NotValidated;
                verdict.reason = *failure;
            } else if (refinementFallback_ || config_.refinementOnly) {
                verdict.kind = VerdictKind::Refines;
                verdict.reason =
                    config_.refinementOnly
                        ? "refinement mode requested"
                        : "input-side undefined behaviour reachable; "
                          "refinement proven";
            } else {
                verdict.kind = VerdictKind::Equivalent;
            }
        } catch (const BudgetExceeded &limit) {
            verdict.kind = limit.kind;
            verdict.failure = limit.failure;
            verdict.reason = limit.what;
        } catch (const smt::SolverCrashError &crash) {
            // Only an unguarded backend can throw this (a GuardedSolver
            // absorbs crashes into classified Unknowns); one crashed
            // query costs this verdict, never the worker.
            verdict.kind = VerdictKind::Timeout;
            verdict.failure = FailureKind::SolverCrash;
            verdict.reason = std::string("solver crashed: ") +
                             crash.what();
        }
        verdict.usedRefinementFallback = refinementFallback_;
        verdict.proof = std::move(proof_);
        smt::SolverStats after = solver_.stats();
        stats_.solverQueries = after.queries - before.queries;
        stats_.solverSeconds = after.totalSeconds - before.totalSeconds;
        stats_.solverStats = after - before;
        stats_.totalSeconds = watch_.seconds();
        verdict.stats = stats_;
        return verdict;
    }

  private:
    // --- budgets -----------------------------------------------------------

    void
    checkBudgets()
    {
        if (config_.cancel.cancelled()) {
            throw BudgetExceeded{VerdictKind::Timeout,
                                 FailureKind::Cancelled, "cancelled"};
        }
        if (config_.wallBudgetSeconds > 0.0 &&
            watch_.seconds() > config_.wallBudgetSeconds) {
            throw BudgetExceeded{VerdictKind::Timeout,
                                 FailureKind::Timeout,
                                 "wall-clock budget exhausted"};
        }
        if (config_.maxTermNodes > 0 &&
            tf_.nodeCount() > config_.maxTermNodes) {
            throw BudgetExceeded{VerdictKind::OutOfMemory,
                                 FailureKind::MemoryBudget,
                                 "term-node budget exhausted"};
        }
    }

    /**
     * Classification of the solver's most recent Unknown: trust the
     * solver's own taxonomy when it has one (GuardedSolver always
     * does), otherwise call honest incompleteness SolverUnknown.
     */
    FailureKind
    unknownFailure() const
    {
        FailureKind kind = solver_.lastFailureKind();
        return kind == FailureKind::None ? FailureKind::SolverUnknown
                                         : kind;
    }

    /**
     * Aborts the check after an Unknown @p during some query, with the
     * failure kind and the backend's raw message (a Z3 reason, a
     * worker's exit status) in the verdict's reason.
     */
    [[noreturn]] void
    abortOnUnknown(const char *during) const
    {
        FailureKind failure = unknownFailure();
        std::string reason = std::string("solver returned unknown ") +
                             during + " (" + failureKindName(failure) +
                             ")";
        std::string raw = solver_.lastUnknownReason();
        if (!raw.empty())
            reason += ": " + raw;
        throw BudgetExceeded{verdictKindFor(failure), failure,
                             std::move(reason)};
    }

    // --- solver helpers ------------------------------------------------------

    /**
     * Feasibility check used to *excuse* an unmatched pair: false means
     * "provably unreachable together". An Unknown result (solver
     * timeout) must never excuse anything — we abort with a Timeout
     * verdict instead of silently passing, keeping the checker
     * fail-closed.
     */
    bool
    isSat(Term condition)
    {
        checkBudgets();
        if (condition.isTrue())
            return true;
        if (condition.isFalse())
            return false;
        switch (solver_.checkSat({condition})) {
          case SatResult::Sat:
            return true;
          case SatResult::Unsat:
            return false;
          case SatResult::Unknown:
            abortOnUnknown("on a feasibility check");
        }
        return true;
    }

    /**
     * Reachability probe for input-side undefined behaviour: true
     * degrades the verdict to refinement. An Unknown (a timeout, a
     * killed worker) is not evidence of reachability — counting it as
     * "possibly sat" would silently turn a lost query into a Refines
     * verdict with no failure recorded. It aborts instead, like
     * isSat.
     */
    bool
    ubReachable(Term condition)
    {
        checkBudgets();
        if (condition.isTrue())
            return true;
        if (condition.isFalse())
            return false;
        SatResult result = solver_.checkSat({condition});
        if (result != SatResult::Unknown)
            return result == SatResult::Sat;
        abortOnUnknown("on the input-side undefined behaviour "
                       "reachability check");
    }

    bool
    proveImplication(Term hypothesis, Term conclusion)
    {
        checkBudgets();
        return solver_.proveImplication(hypothesis, conclusion);
    }

    /**
     * Proves `cond => target` where `target` is one of the disjoint,
     * total path conditions `siblings ∪ {target}` of a deterministic
     * semantics. With the Section 3 optimization the negation of `target`
     * is replaced by the positive disjunction of its siblings.
     */
    bool
    provePathImplication(Term cond, Term target,
                         const std::vector<SymbolicState> &family,
                         const SymbolicState &target_state)
    {
        checkBudgets();
        if (!config_.positiveFormOpt)
            return proveImplication(cond, target);
        Term siblings = tf_.falseTerm();
        for (const SymbolicState &state : family) {
            if (&state == &target_state)
                continue;
            siblings = tf_.mkOr(siblings, state.pathCond);
        }
        Term query = tf_.mkAnd(cond, siblings);
        if (query.isFalse())
            return true;
        return solver_.checkSat({query}) == SatResult::Unsat;
    }

    // --- seeding ---------------------------------------------------------------

    /** Equality of two bitvector terms after widening the narrower. */
    Term
    eqWiden(Term a, Term b)
    {
        unsigned wa = a.sort().width();
        unsigned wb = b.sort().width();
        unsigned w = std::max(wa, wb);
        Term wide_a = wa == w ? a : tf_.zext(a, w);
        Term wide_b = wb == w ? b : tf_.zext(b, w);
        return tf_.mkEq(wide_a, wide_b);
    }

    struct Seeded
    {
        SymbolicState a;
        SymbolicState b;
    };

    Seeded
    seedPoint(const SyncPoint &point)
    {
        sem::StateSeed seed_a{point.a.function, point.a.block,
                              point.a.cameFrom,
                              point.kind == SyncKind::AfterCall
                                  ? point.a.callSiteId
                                  : ""};
        sem::StateSeed seed_b{point.b.function, point.b.block,
                              point.b.cameFrom,
                              point.kind == SyncKind::AfterCall
                                  ? point.b.callSiteId
                                  : ""};
        Term memory =
            tf_.var("mem." + point.id, smt::Sort::memArray());
        Term seed_cond = tf_.trueTerm();
        SymbolicState a = semA_.makeState(seed_a, {}, memory,
                                          tf_.trueTerm());
        SymbolicState b = semB_.makeState(seed_b, {}, memory,
                                          tf_.trueTerm());

        std::set<std::string> bound_a, bound_b;
        unsigned var_index = 0;
        for (const SyncConstraint &constraint : point.constraints) {
            std::string base = "sync." + point.id + ".v" +
                               std::to_string(var_index++);
            switch (constraint.kind) {
              case SyncConstraint::Kind::AEqB: {
                unsigned wa =
                    semA_.registerWidth(fnA_, constraint.regA);
                unsigned wb =
                    semB_.registerWidth(fnB_, constraint.regB);
                unsigned narrow = std::min(wa, wb);
                bool have_a = bound_a.count(constraint.regA) != 0;
                bool have_b = bound_b.count(constraint.regB) != 0;
                if (have_a && have_b) {
                    seed_cond = tf_.mkAnd(
                        seed_cond,
                        eqWiden(
                            semA_.readRegister(a, fnA_, constraint.regA),
                            semB_.readRegister(b, fnB_,
                                               constraint.regB)));
                    break;
                }
                Term v;
                if (have_a) {
                    Term ta =
                        semA_.readRegister(a, fnA_, constraint.regA);
                    v = tf_.trunc(ta, narrow);
                    // The wide pre-bound side must itself be the zext of
                    // its low bits for the relation to be exact; conjoin.
                    if (wa != narrow) {
                        seed_cond = tf_.mkAnd(
                            seed_cond, tf_.mkEq(ta, tf_.zext(v, wa)));
                    }
                } else if (have_b) {
                    Term tb =
                        semB_.readRegister(b, fnB_, constraint.regB);
                    v = tf_.trunc(tb, narrow);
                    if (wb != narrow) {
                        seed_cond = tf_.mkAnd(
                            seed_cond, tf_.mkEq(tb, tf_.zext(v, wb)));
                    }
                } else {
                    v = tf_.var(base, smt::Sort::bitVec(narrow));
                }
                if (!have_a) {
                    semA_.bindRegister(a, fnA_, constraint.regA,
                                       narrow == wa ? v
                                                    : tf_.zext(v, wa));
                    bound_a.insert(constraint.regA);
                }
                if (!have_b) {
                    semB_.bindRegister(b, fnB_, constraint.regB,
                                       narrow == wb ? v
                                                    : tf_.zext(v, wb));
                    bound_b.insert(constraint.regB);
                }
                break;
              }
              case SyncConstraint::Kind::AEqConst: {
                unsigned wa =
                    semA_.registerWidth(fnA_, constraint.regA);
                Term value = tf_.bvConst(
                    constraint.value.zextTo(64).truncTo(wa));
                if (bound_a.count(constraint.regA)) {
                    seed_cond = tf_.mkAnd(
                        seed_cond,
                        tf_.mkEq(semA_.readRegister(a, fnA_,
                                                    constraint.regA),
                                 value));
                } else {
                    semA_.bindRegister(a, fnA_, constraint.regA, value);
                    bound_a.insert(constraint.regA);
                }
                break;
              }
              case SyncConstraint::Kind::BEqConst: {
                unsigned wb =
                    semB_.registerWidth(fnB_, constraint.regB);
                Term value = tf_.bvConst(
                    constraint.value.zextTo(64).truncTo(wb));
                if (bound_b.count(constraint.regB)) {
                    seed_cond = tf_.mkAnd(
                        seed_cond,
                        tf_.mkEq(semB_.readRegister(b, fnB_,
                                                    constraint.regB),
                                 value));
                } else {
                    semB_.bindRegister(b, fnB_, constraint.regB, value);
                    bound_b.insert(constraint.regB);
                }
                break;
              }
            }
        }
        a.pathCond = seed_cond;
        b.pathCond = seed_cond;
        return {std::move(a), std::move(b)};
    }

    // --- cut membership and segments (function next_i) -------------------------

    bool
    isCutLocation(Side side, const SymbolicState &state) const
    {
        for (const SyncPoint &point : points_.points) {
            if (point.kind != SyncKind::BlockEntry)
                continue;
            const sem::SyncLoc &loc =
                side == Side::A ? point.a : point.b;
            if (loc.block == state.block &&
                (loc.cameFrom.empty() ||
                 loc.cameFrom == state.cameFrom)) {
                return true;
            }
        }
        return false;
    }

    std::vector<SymbolicState>
    segment(sem::Semantics &semantics, Side side,
            const SymbolicState &seed)
    {
        std::vector<SymbolicState> results;
        size_t steps = 0;
        // Take at least one step before testing cut membership
        // (Definition 7.3 requires a strictly positive path length).
        std::vector<SymbolicState> work = semantics.step(seed);
        while (!work.empty()) {
            if (++steps > config_.maxStepsPerSegment) {
                throw BudgetExceeded{
                    VerdictKind::Timeout, FailureKind::Timeout,
                    "symbolic step budget exhausted (missing loop "
                    "synchronization point?)"};
            }
            ++stats_.symbolicSteps;
            checkBudgets();
            SymbolicState state = std::move(work.back());
            work.pop_back();
            if (state.pathCond.isFalse())
                continue; // statically infeasible branch
            if (state.status != Status::Running ||
                (state.atBlockEntry() && isCutLocation(side, state))) {
                results.push_back(std::move(state));
                continue;
            }
            std::vector<SymbolicState> successors =
                semantics.step(state);
            for (SymbolicState &successor : successors)
                work.push_back(std::move(successor));
        }
        return results;
    }

    // --- pair matching (Algorithm 1 lines 8-12, symbolic) ------------------------

    /**
     * Builds the obligation conjunction placing pair (a, b) inside sync
     * point @p q. Reads may havoc registers, so takes copies.
     */
    Term
    obligations(const SyncPoint &q, SymbolicState a, SymbolicState b)
    {
        Term all = tf_.trueTerm();
        for (const SyncConstraint &constraint : q.constraints) {
            switch (constraint.kind) {
              case SyncConstraint::Kind::AEqB:
                all = tf_.mkAnd(
                    all,
                    eqWiden(
                        semA_.readRegister(a, fnA_, constraint.regA),
                        semB_.readRegister(b, fnB_, constraint.regB)));
                break;
              case SyncConstraint::Kind::AEqConst: {
                Term ta = semA_.readRegister(a, fnA_, constraint.regA);
                all = tf_.mkAnd(
                    all, tf_.mkEq(ta, tf_.bvConst(
                                          constraint.value.zextTo(64)
                                              .truncTo(
                                                  ta.sort().width()))));
                break;
              }
              case SyncConstraint::Kind::BEqConst: {
                Term tb = semB_.readRegister(b, fnB_, constraint.regB);
                all = tf_.mkAnd(
                    all, tf_.mkEq(tb, tf_.bvConst(
                                          constraint.value.zextTo(64)
                                              .truncTo(
                                                  tb.sort().width()))));
                break;
              }
            }
        }
        if (acceptability_.requiresMemoryEquality())
            all = tf_.mkAnd(all, tf_.mkEq(a.memory, b.memory));
        return all;
    }

    /** Sync points whose locations admit this status/pair. */
    std::vector<const SyncPoint *>
    candidatePoints(const SymbolicState &a, const SymbolicState &b) const
    {
        std::vector<const SyncPoint *> candidates;
        for (const SyncPoint &point : points_.points) {
            switch (point.kind) {
              case SyncKind::Exit:
                if (a.status == Status::Exited &&
                    b.status == Status::Exited) {
                    candidates.push_back(&point);
                }
                break;
              case SyncKind::BeforeCall:
                if (a.status == Status::AtCall &&
                    b.status == Status::AtCall &&
                    point.a.callSiteId == a.callSiteId &&
                    point.b.callSiteId == b.callSiteId) {
                    candidates.push_back(&point);
                }
                break;
              case SyncKind::BlockEntry:
                if (a.status == Status::Running &&
                    b.status == Status::Running &&
                    point.a.block == a.block &&
                    point.b.block == b.block &&
                    (point.a.cameFrom.empty() ||
                     point.a.cameFrom == a.cameFrom) &&
                    (point.b.cameFrom.empty() ||
                     point.b.cameFrom == b.cameFrom)) {
                    candidates.push_back(&point);
                }
                break;
              default:
                break;
            }
        }
        return candidates;
    }

    enum class PairResult : uint8_t { Pass, Fail };

    /** Appends a proof-log entry (when proof collection is enabled). */
    void
    recordStep(const SyncPoint &source, const SyncPoint *target,
               const SymbolicState &a, const SymbolicState &b,
               ProofStep::Method method, Term hypothesis,
               Term conclusion)
    {
        if (!config_.collectProof)
            return;
        auto clip = [](std::string text) {
            if (text.size() > 160)
                text = text.substr(0, 157) + "...";
            return text;
        };
        ProofStep step;
        step.sourcePoint = source.id;
        step.targetPoint = target != nullptr ? target->id : "";
        step.stateA = a.describe();
        step.stateB = b.describe();
        step.method = method;
        if (hypothesis && conclusion) {
            step.obligation = clip(hypothesis.toString()) + "  ==>  " +
                              clip(conclusion.toString());
        }
        proof_.push_back(std::move(step));
    }

    /**
     * Checks one successor pair against the sync point set (the symbolic
     * inclusion of line 9). Pairs with jointly unsatisfiable path
     * conditions are vacuously fine — no concrete execution reaches them
     * together (the systems are deterministic, so concrete pairing
     * follows the shared seed valuation).
     */
    PairResult
    matchPair(const SyncPoint &source, const SymbolicState &a,
              const SymbolicState &b,
              const std::vector<SymbolicState> &family_a,
              const std::vector<SymbolicState> &family_b,
              std::string &why)
    {
        ++stats_.pairsExamined;
        // The checker never routes around an Unknown. A failure after
        // one is inconclusive (the obligation may well hold), and a
        // pass after one — the next candidate point, the unmerged
        // hypothesis — would hide a lost query (a solver timeout, a
        // killed worker) in a verdict that records no failure and whose
        // accounting depends on the fault. So every solver call below
        // either aborts on Unknown itself (isSat, ubReachable) or is
        // followed by this check.
        uint64_t unknowns_before = solver_.stats().unknown;
        auto abortAfterUnknown = [&](const char *during) {
            if (solver_.stats().unknown != unknowns_before)
                abortOnUnknown(during);
        };
        auto fail = [&](std::string reason) {
            why = std::move(reason);
            return PairResult::Fail;
        };

        // Undefined behaviour on the input side licenses anything on the
        // output side (Section 4.6): the pair is acceptable, and the
        // verdict degrades to refinement if this situation is reachable.
        if (a.status == Status::Error &&
            acceptability_.errorAcceptsAnyOutput(a.errorKind)) {
            if (!refinementFallback_ && ubReachable(a.pathCond))
                refinementFallback_ = true;
            recordStep(source, nullptr, a, b,
                       ProofStep::Method::Acceptability, Term(), Term());
            return PairResult::Pass;
        }
        if (b.status == Status::Error) {
            if (a.status == Status::Error &&
                acceptability_.errorsRelated(a.errorKind, b.errorKind)) {
                recordStep(source, nullptr, a, b,
                           ProofStep::Method::Acceptability, Term(),
                           Term());
                return PairResult::Pass;
            }
            if (isSat(tf_.mkAnd(a.pathCond, b.pathCond))) {
                return fail("after " + source.id +
                            ": output reaches error (" +
                            std::string(
                                sem::errorKindName(b.errorKind)) +
                            ") with no matching input behaviour: " +
                            b.describe());
            }
            return PairResult::Pass;
        }
        if (a.status == Status::Error) {
            // Non-accepting input error must pair with an output error;
            // reaching here means b is not an error state.
            if (isSat(tf_.mkAnd(a.pathCond, b.pathCond))) {
                return fail("after " + source.id +
                            ": input error state unmatched: " +
                            a.describe());
            }
            return PairResult::Pass;
        }

        std::vector<const SyncPoint *> candidates = candidatePoints(a, b);
        if (candidates.empty()) {
            if (isSat(tf_.mkAnd(a.pathCond, b.pathCond))) {
                return fail("after " + source.id +
                            ": unsynchronized states: " + a.describe() +
                            " vs " + b.describe());
            }
            recordStep(source, nullptr, a, b,
                       ProofStep::Method::Vacuous, Term(), Term());
            return PairResult::Pass;
        }

        // Path-condition handling per Section 3: first try to prove the
        // two path conditions equivalent (with the positive-form
        // optimization); the inclusion query then simplifies.
        Term hypothesis;
        bool equivalent = false;
        Term joint = tf_.mkAnd(a.pathCond, b.pathCond);
        if (a.pathCond == b.pathCond) {
            hypothesis = a.pathCond;
            equivalent = true;
        } else if (joint.isFalse()) {
            // Folding already shows the pair is jointly unreachable; no
            // equivalence attempt needed.
            hypothesis = joint;
        } else {
            equivalent = provePathImplication(a.pathCond, b.pathCond,
                                              family_b, b) &&
                         provePathImplication(b.pathCond, a.pathCond,
                                              family_a, a);
            abortAfterUnknown("on a path-equivalence check");
            hypothesis = equivalent ? a.pathCond : joint;
        }
        for (const SyncPoint *q : candidates) {
            Term required = obligations(*q, a, b);
            // Call-boundary pairs additionally match callee and
            // arguments (Section 4.5, "Call sites").
            if (q->kind == SyncKind::BeforeCall) {
                if (a.callee != b.callee ||
                    a.callArgs.size() != b.callArgs.size()) {
                    continue;
                }
                for (size_t i = 0; i < a.callArgs.size(); ++i) {
                    required = tf_.mkAnd(
                        required,
                        eqWiden(a.callArgs[i], b.callArgs[i]));
                }
            }
            if (q->kind == SyncKind::Exit && a.result && b.result) {
                // $ret constraints come from the point itself; nothing
                // extra here.
            }
            uint64_t queries_before = solver_.stats().queries;
            bool discharged = proveImplication(hypothesis, required);
            abortAfterUnknown("while discharging obligations");
            if (discharged) {
                recordStep(source, q, a, b,
                           solver_.stats().queries == queries_before
                               ? ProofStep::Method::Folded
                               : ProofStep::Method::Solver,
                           hypothesis, required);
                return PairResult::Pass;
            }
        }

        // No candidate point subsumes the pair; genuine counterexample
        // only if the pair is jointly reachable.
        Term feasible = equivalent
                            ? a.pathCond
                            : tf_.mkAnd(a.pathCond, b.pathCond);
        if (isSat(feasible)) {
            return fail("after " + source.id +
                        ": pair not contained in any synchronization "
                        "point: " +
                        a.describe() + " vs " + b.describe());
        }
        recordStep(source, nullptr, a, b, ProofStep::Method::Vacuous,
                   Term(), Term());
        return PairResult::Pass;
    }

    /** Algorithm 1 check(p1, p2) for one source point. */
    std::optional<std::string>
    checkPoint(const SyncPoint &point)
    {
        Seeded seeded = seedPoint(point);
        std::vector<SymbolicState> n_a =
            segment(semA_, Side::A, seeded.a);
        std::vector<SymbolicState> n_b =
            segment(semB_, Side::B, seeded.b);

        for (const SymbolicState &a : n_a) {
            for (const SymbolicState &b : n_b) {
                std::string why;
                if (matchPair(point, a, b, n_a, n_b, why) ==
                    PairResult::Fail) {
                    return why;
                }
            }
        }
        // Stuck-side detection: if one side produced no successors while
        // the other did (and is feasible), the programs desynchronize.
        if (n_a.empty() != n_b.empty()) {
            const std::vector<SymbolicState> &nonempty =
                n_a.empty() ? n_b : n_a;
            for (const SymbolicState &state : nonempty) {
                if (isSat(state.pathCond)) {
                    return "after " + point.id +
                           ": one side has no successors while the "
                           "other reaches " +
                           state.describe();
                }
            }
        }
        return std::nullopt;
    }

    sem::Semantics &semA_;
    sem::Semantics &semB_;
    const sem::Acceptability &acceptability_;
    smt::Solver &solver_;
    CheckerConfig config_;
    std::string fnA_;
    std::string fnB_;
    const SyncPointSet &points_;
    smt::TermFactory &tf_;
    CheckStats stats_;
    support::Stopwatch watch_;
    bool refinementFallback_ = false;
    std::vector<ProofStep> proof_;
};

} // namespace

Checker::Checker(sem::Semantics &sem_a, sem::Semantics &sem_b,
                 const sem::Acceptability &acceptability,
                 smt::Solver &solver, CheckerConfig config)
    : semA_(sem_a), semB_(sem_b), acceptability_(acceptability),
      solver_(solver), config_(config)
{
    KEQ_ASSERT(&sem_a.factory() == &sem_b.factory(),
               "the two semantics must share one term factory");
}

Verdict
Checker::check(const std::string &function_a,
               const std::string &function_b,
               const sem::SyncPointSet &points)
{
    Run run(semA_, semB_, acceptability_, solver_, config_, function_a,
            function_b, points);
    return run.run();
}

} // namespace keq::checker
