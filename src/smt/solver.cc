#include "src/smt/solver.h"

#include "src/smt/term_factory.h"

namespace keq::smt {

SolverStats &
SolverStats::operator+=(const SolverStats &rhs)
{
    forEachCounter(
        [](CounterInfo, auto &sum, const auto &add) { sum += add; }, *this,
        rhs);
    return *this;
}

SolverStats
SolverStats::operator-(const SolverStats &rhs) const
{
    SolverStats delta;
    forEachCounter([](CounterInfo, auto &diff, const auto &lhs,
                      const auto &sub) { diff = lhs - sub; },
                   delta, *this, rhs);
    return delta;
}

const char *
satResultName(SatResult result)
{
    switch (result) {
      case SatResult::Sat: return "sat";
      case SatResult::Unsat: return "unsat";
      case SatResult::Unknown: return "unknown";
    }
    return "?";
}

void
foldNonVerdictStats(SolverStats &into, const SolverStats &delta)
{
    forEachCounter(
        [](CounterInfo info, auto &sum, const auto &add) {
            if (info.cls != CounterClass::Verdict)
                sum += add;
        },
        into, delta);
}

FailureKind
classifyUnknownReason(const std::string &reason)
{
    // Z3 spells these "timeout", "canceled" (after Z3_interrupt), and
    // "max. memory exceeded"; substring matching keeps us robust across
    // versions and alternate backends.
    if (reason.find("timeout") != std::string::npos)
        return FailureKind::Timeout;
    if (reason.find("cancel") != std::string::npos ||
        reason.find("interrupt") != std::string::npos)
        return FailureKind::Timeout;
    if (reason.find("memory") != std::string::npos)
        return FailureKind::MemoryBudget;
    return FailureKind::SolverUnknown;
}

bool
Solver::proveImplication(Term hypothesis, Term conclusion)
{
    TermFactory &tf = factory();
    // Fast path: folding already decided it.
    Term negated = tf.mkAnd(hypothesis, tf.mkNot(conclusion));
    if (negated.isFalse())
        return true;
    if (hypothesis.isTrue() && conclusion.isFalse())
        return false;
    return checkSat({negated}) == SatResult::Unsat;
}

} // namespace keq::smt
