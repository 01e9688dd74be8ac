#include "src/smt/solver_stack.h"

#include "src/smt/incremental_z3_solver.h"
#include "src/smt/sandbox.h"
#include "src/smt/z3_solver.h"

namespace keq::smt {

SolverStack::~SolverStack()
{
    while (!layers_.empty())
        layers_.pop_back();
}

std::unique_ptr<Solver>
makeLaneBackend(TermFactory &factory, Lane lane)
{
    if (lane == Lane::Cold)
        return std::make_unique<Z3Solver>(factory);
    return std::make_unique<IncrementalZ3Solver>(factory);
}

std::unique_ptr<Solver>
makePristineSolver(TermFactory &factory)
{
    return std::make_unique<Z3Solver>(factory);
}

SolverStack
buildSolverStack(TermFactory &factory, const StackSpec &spec)
{
    SolverStack stack;
    std::vector<std::unique_ptr<Solver>> &layers = stack.layers_;

    if (spec.sandbox != nullptr) {
        layers.push_back(std::make_unique<SandboxSolver>(
            factory, *spec.sandbox, spec.lane));
    } else {
        layers.push_back(makeLaneBackend(factory, spec.lane));
    }

    if (spec.cache != nullptr) {
        CachingSolverOptions front = spec.front;
        if (front.auditRate > 0.0)
            front.auditSolverFactory = makePristineSolver;
        layers.push_back(std::make_unique<CachingSolver>(
            factory, stack.top(), spec.cache, std::move(front)));
    }

    // The injector sits above the front, so injected misbehavior
    // exercises the guard's retries and fallback without ever reaching
    // the verdicts the front stores.
    if (spec.faults.enabled()) {
        layers.push_back(std::make_unique<FaultInjectingSolver>(
            factory, stack.top(), spec.faults));
    }

    if (spec.guard) {
        // The fallback is pristine, never fault-injected: that is what
        // makes chaos verdicts converge to clean ones.
        layers.push_back(std::make_unique<GuardedSolver>(
            factory, stack.top(),
            [&factory] { return makePristineSolver(factory); },
            *spec.guard));
    }

    if (spec.memoryBudgetMb > 0)
        stack.top().setMemoryBudgetMb(spec.memoryBudgetMb);
    return stack;
}

StackSpec
workerStackSpec(const wire::ResetFrame &reset)
{
    StackSpec spec;
    spec.lane = reset.lane;
    GuardedSolverOptions guard;
    // A second of slack past the solver's own timeout: the watchdog
    // only fires on a check that ignored its soft timeout.
    guard.deadlineMs = reset.timeoutMs > 0 ? reset.timeoutMs + 1000 : 0;
    guard.retries = reset.retries;
    spec.guard = guard;
    spec.memoryBudgetMb = reset.memoryBudgetMb;
    return spec;
}

} // namespace keq::smt
