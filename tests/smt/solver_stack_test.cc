/** @file The one solver-stack builder: for the spec of each caller
 *  (in process, sandbox parent, sandbox worker) it pins which layers
 *  the stack has, in which order, which lane its backend solves on,
 *  and that the guard holds its pristine fallback rung. */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/smt/incremental_z3_solver.h"
#include "src/smt/sandbox.h"
#include "src/smt/solver_stack.h"
#include "src/smt/z3_solver.h"

namespace keq::smt {
namespace {

/** The kind of each layer, the backend first. */
std::vector<std::string>
layerKinds(const SolverStack &stack)
{
    std::vector<std::string> kinds;
    for (const std::unique_ptr<Solver> &layer : stack.layers()) {
        Solver *s = layer.get();
        if (dynamic_cast<IncrementalZ3Solver *>(s) != nullptr)
            kinds.push_back("incremental");
        else if (dynamic_cast<Z3Solver *>(s) != nullptr)
            kinds.push_back("cold");
        else if (dynamic_cast<SandboxSolver *>(s) != nullptr)
            kinds.push_back("sandbox");
        else if (dynamic_cast<CachingSolver *>(s) != nullptr)
            kinds.push_back("front");
        else if (dynamic_cast<FaultInjectingSolver *>(s) != nullptr)
            kinds.push_back("injector");
        else if (dynamic_cast<GuardedSolver *>(s) != nullptr)
            kinds.push_back("guard");
        else
            kinds.push_back("?");
    }
    return kinds;
}

using Kinds = std::vector<std::string>;

TEST(SolverStack, DefaultSpecIsTheBareDefaultLane)
{
    TermFactory f;
    EXPECT_EQ(StackSpec{}.lane, Lane::Default);
    SolverStack stack = buildSolverStack(f, StackSpec{});
    EXPECT_EQ(layerKinds(stack), Kinds{"incremental"});
    EXPECT_EQ(&stack.top(), stack.layers().front().get());
}

TEST(SolverStack, PinsTheLayerOrderOfEveryCaller)
{
    TermFactory f;
    auto cache = std::make_shared<QueryCache>();

    // In process, under chaos: backend, front, injector, guard.
    StackSpec in_process;
    in_process.lane = Lane::Cold;
    in_process.cache = cache;
    in_process.faults.seed = 7;
    in_process.faults.crashPercent = 10;
    in_process.guard = GuardedSolverOptions{};
    SolverStack local = buildSolverStack(f, in_process);
    EXPECT_EQ(layerKinds(local),
              (Kinds{"cold", "front", "injector", "guard"}));
    auto &local_guard = dynamic_cast<GuardedSolver &>(local.top());
    EXPECT_TRUE(local_guard.hasFallback());

    // Sandbox parent: the pool is the backend, under the front. The
    // guard runs in the worker; the sandbox's chaos is real signals.
    WorkerSupervisor pool(SandboxOptions{}); // never started
    StackSpec parent;
    parent.lane = Lane::Cold;
    parent.sandbox = &pool;
    parent.cache = cache;
    SolverStack sandboxed = buildSolverStack(f, parent);
    EXPECT_EQ(layerKinds(sandboxed), (Kinds{"sandbox", "front"}));
    EXPECT_EQ(dynamic_cast<SandboxSolver &>(*sandboxed.layers().front())
                  .lane(),
              Lane::Cold);

    // Worker: the Reset's lane under the guard, with the same fallback
    // rung as in process and the parent's retry count; no front.
    wire::ResetFrame reset;
    reset.timeoutMs = 500;
    reset.retries = 3;
    reset.lane = Lane::Cold;
    SolverStack worker = buildSolverStack(f, workerStackSpec(reset));
    EXPECT_EQ(layerKinds(worker), (Kinds{"cold", "guard"}));
    auto &worker_guard = dynamic_cast<GuardedSolver &>(worker.top());
    EXPECT_TRUE(worker_guard.hasFallback());
    EXPECT_EQ(worker_guard.options().retries, 3u);
    EXPECT_EQ(worker_guard.options().deadlineMs, 1500u);
}

TEST(SolverStack, EachLaneBuildsItsOwnBackend)
{
    // The two lanes, in process and in a worker session alike.
    TermFactory f;
    EXPECT_NE(dynamic_cast<IncrementalZ3Solver *>(
                  makeLaneBackend(f, Lane::Default).get()),
              nullptr);
    EXPECT_NE(dynamic_cast<Z3Solver *>(makeLaneBackend(f, Lane::Cold).get()),
              nullptr);
    wire::ResetFrame reset; // a Reset names the default lane unless set
    EXPECT_EQ(layerKinds(buildSolverStack(f, workerStackSpec(reset))),
              (Kinds{"incremental", "guard"}));
}

} // namespace
} // namespace keq::smt
