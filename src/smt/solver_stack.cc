#include "src/smt/solver_stack.h"

#include "src/smt/sandbox.h"
#include "src/smt/z3_solver.h"

namespace keq::smt {

SolverStack::~SolverStack()
{
    while (!layers_.empty())
        layers_.pop_back();
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
        // One worker per lane, raced by the supervisor when there are
        // several; each lane travels as the roster entry it came from.
        std::vector<std::string> entries;
        for (const LaneConfig &lane : spec.lanes)
            entries.push_back(lane.entry);
        layers.push_back(std::make_unique<SandboxSolver>(
            factory, *spec.sandbox, std::move(entries)));
    } else if (spec.lanes.size() > 1) {
        layers.push_back(
            std::make_unique<PortfolioSolver>(factory, spec.lanes));
    } else {
        layers.push_back(makeLaneBackend(factory, spec.lanes.front()));
    }

    if (spec.cache != nullptr) {
        CachingSolverOptions front = spec.front;
        if (front.auditRate > 0.0)
            front.auditSolverFactory = makePristineSolver;
        layers.push_back(std::make_unique<CachingSolver>(
            factory, stack.top(), spec.cache, std::move(front)));
    }

    // The injector sits above the front, so injected misbehavior
    // exercises the guard's retries and rungs without ever reaching
    // the verdicts the front stores.
    if (spec.faults.enabled()) {
        layers.push_back(std::make_unique<FaultInjectingSolver>(
            factory, stack.top(), spec.faults));
    }

    if (spec.guard) {
        // Rung 1 is a fresh cold solver on the raw (unpreprocessed)
        // query, still fault-injected under chaos; rung 2 is pristine,
        // which is what makes chaos verdicts converge to clean ones.
        FaultPlan rung1_plan = spec.faults.derive(1);
        std::vector<GuardedSolver::RungFactory> rungs;
        rungs.push_back(
            [&factory, rung1_plan]() -> std::unique_ptr<Solver> {
                std::unique_ptr<Solver> fresh = makePristineSolver(factory);
                if (rung1_plan.enabled()) {
                    return std::make_unique<FaultInjectingSolver>(
                        factory, std::move(fresh), rung1_plan);
                }
                return fresh;
            });
        rungs.push_back([&factory] { return makePristineSolver(factory); });
        layers.push_back(std::make_unique<GuardedSolver>(
            factory, stack.top(), std::move(rungs), *spec.guard));
    }

    if (spec.memoryBudgetMb > 0)
        stack.top().setMemoryBudgetMb(spec.memoryBudgetMb);
    return stack;
}

StackSpec
workerStackSpec(const wire::ResetFrame &reset, LaneConfig lane)
{
    StackSpec spec;
    spec.lanes = {std::move(lane)};
    GuardedSolverOptions guard;
    // A second of slack past the solver's own timeout: the watchdog
    // only fires on a check that ignored its soft timeout.
    guard.deadlineMs = reset.timeoutMs > 0 ? reset.timeoutMs + 1000 : 0;
    guard.retries = reset.retries;
    // Armed even without a deadline: the parent's Cancel frame reaps
    // a losing portfolio lane through cancelCurrentQuery(), which
    // needs the re-firing interrupt loop.
    guard.cancellable = true;
    spec.guard = guard;
    spec.memoryBudgetMb = reset.memoryBudgetMb;
    return spec;
}

} // namespace keq::smt
