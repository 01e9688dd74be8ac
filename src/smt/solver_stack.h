#ifndef KEQ_SMT_SOLVER_STACK_H
#define KEQ_SMT_SOLVER_STACK_H

/**
 * @file
 * The one place a solver stack is assembled.
 *
 * Every query the checker asks travels down the same layers, listed
 * here from the bottom (the backend) to the top:
 *
 *  1. backend: the lane's Z3 backend (makeLaneBackend), or a
 *     SandboxSolver that ships each query to a worker process, whose
 *     stack builds the same lane;
 *  2. front: a CachingSolver (rewrite, slice, verdict store, model
 *     reuse);
 *  3. injector: a FaultInjectingSolver, in chaos runs only;
 *  4. guard: a GuardedSolver, whose watchdog and retries cover the
 *     layers below, with one fallback rung: a pristine Z3Solver.
 *
 * A StackSpec says which layers a stack has; buildSolverStack alone
 * knows their order. The pipeline (in process and as a sandbox
 * parent), the sandbox worker and the register-allocation check all
 * build their stacks here. The guard's fallback rung and the front's
 * cache auditor are both makePristineSolver.
 *
 * Callers build one of two stacks. The optimized stack is the Default
 * lane under the front; the reference stack is the Cold lane with no
 * front (ExecutionOptions::optimizeQueries picks between them).
 */

#include <memory>
#include <optional>
#include <vector>

#include "src/smt/caching_solver.h"
#include "src/smt/fault_injection.h"
#include "src/smt/guarded_solver.h"
#include "src/smt/wire.h"

namespace keq::smt {

class WorkerSupervisor;

/** Which layers a solver stack has. The default spec is the bare
 *  "default" lane with nothing above it. */
struct StackSpec
{
    /** The backend lane, in process or in the sandbox workers. */
    Lane lane = Lane::Default;
    /** Non-null: the backend is a SandboxSolver over this pool. */
    WorkerSupervisor *sandbox = nullptr;
    /** Non-null: a front memoizes into this store. */
    std::shared_ptr<QueryCache> cache;
    /** The front's stages and audit rate; the builder supplies the
     *  audit solver. */
    CachingSolverOptions front;
    /** Chaos plan for the injector. */
    FaultPlan faults;
    /** Set: a guard tops the stack. */
    std::optional<GuardedSolverOptions> guard;
    /** Soft per-query memory budget in MB; 0 = none. */
    unsigned memoryBudgetMb = 0;
};

/** An assembled stack. It owns every layer and destroys them top
 *  first, since each layer refers to the one below. */
class SolverStack
{
  public:
    SolverStack() = default;
    SolverStack(SolverStack &&) = default;
    SolverStack &operator=(SolverStack &&) = delete;
    ~SolverStack();

    /** The layer the checker talks to. */
    Solver &top() const { return *layers_.back(); }

    /** Every layer, the backend first. */
    const std::vector<std::unique_ptr<Solver>> &
    layers() const
    {
        return layers_;
    }

  private:
    friend SolverStack buildSolverStack(TermFactory &factory,
                                        const StackSpec &spec);

    std::vector<std::unique_ptr<Solver>> layers_;
};

/** Builds the stack @p spec describes; see the file comment. */
SolverStack buildSolverStack(TermFactory &factory, const StackSpec &spec);

/** The in-process backend of @p lane: an IncrementalZ3Solver for
 *  Default, a Z3Solver for Cold. */
std::unique_ptr<Solver> makeLaneBackend(TermFactory &factory, Lane lane);

/**
 * The solver nothing can have tampered with: a fresh cold Z3Solver.
 * It is the guard's fallback rung and the cache auditor.
 */
std::unique_ptr<Solver> makePristineSolver(TermFactory &factory);

/**
 * The stack of one sandbox worker session: the Reset's lane under the
 * guard, with the parent's retry count. The worker has no front: the
 * parent's front already rewrote, sliced and looked up the query, and
 * it stores the verdict and the model the Result frame carries back.
 */
StackSpec workerStackSpec(const wire::ResetFrame &reset);

} // namespace keq::smt

#endif // KEQ_SMT_SOLVER_STACK_H
