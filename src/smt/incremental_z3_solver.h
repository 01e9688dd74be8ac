#ifndef KEQ_SMT_INCREMENTAL_Z3_SOLVER_H
#define KEQ_SMT_INCREMENTAL_Z3_SOLVER_H

/**
 * @file
 * Incremental Z3 backend (stage 3 of the optimization stack).
 *
 * Checker queries arrive in runs that share long assertion prefixes:
 * the cut-point hypothesis terms accumulate in order, and successive
 * proof obligations differ only in the negated conclusion at the tail.
 * IncrementalZ3Solver runs on the shared Z3 core (z3_solver.h), whose
 * solvers keep one scope per assertion, but keeps its solver alive for
 * its own lifetime (the pipeline builds one per function validation).
 * A new query pops back to the longest common prefix with the previous
 * one and pushes only the suffix, so the prefix's internalized clauses
 * survive across queries.
 *
 * Soundness guardrail: an Unknown is retried on a fresh solver from the
 * core's one constructor, in a fresh context, which then becomes the
 * persistent solver, so incrementality can change timings but not
 * verdicts — the identity-vs-Z3Solver property tests assert this on
 * interleaved query sequences. A check interrupted through
 * interruptQuery() is not retried.
 */

#include "src/smt/z3_solver.h"

namespace keq::smt {

/** Persistent Z3 solver reusing shared assertion prefixes. */
class IncrementalZ3Solver final : public Z3Backend
{
  public:
    explicit IncrementalZ3Solver(TermFactory &factory)
        : Z3Backend(factory, /*incremental=*/true)
    {}
};

} // namespace keq::smt

#endif // KEQ_SMT_INCREMENTAL_Z3_SOLVER_H
