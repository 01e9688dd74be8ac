/** @file The one solver-stack builder: for the spec of each caller
 *  (in process, sandbox parent, sandbox worker) it pins which layers
 *  the stack has, in which order, and how many cold rungs the guard
 *  holds. */

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
        else if (dynamic_cast<PortfolioSolver *>(s) != nullptr)
            kinds.push_back("portfolio");
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

TEST(SolverStack, DefaultSpecIsTheReferenceStack)
{
    TermFactory f;
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
    in_process.lanes = defaultPortfolioLanes(2);
    in_process.cache = cache;
    in_process.faults.seed = 7;
    in_process.faults.crashPercent = 10;
    in_process.guard = GuardedSolverOptions{};
    SolverStack local = buildSolverStack(f, in_process);
    EXPECT_EQ(layerKinds(local),
              (Kinds{"portfolio", "front", "injector", "guard"}));
    auto &local_guard = dynamic_cast<GuardedSolver &>(local.top());
    EXPECT_EQ(local_guard.fallbackCount(), 2u);

    // Sandbox parent: the pool is the backend, under the front. The
    // guard runs in the worker; the sandbox's chaos is real signals.
    WorkerSupervisor pool(SandboxOptions{}); // never started
    StackSpec parent;
    parent.lanes = defaultPortfolioLanes(3);
    parent.sandbox = &pool;
    parent.cache = cache;
    SolverStack sandboxed = buildSolverStack(f, parent);
    EXPECT_EQ(layerKinds(sandboxed), (Kinds{"sandbox", "front"}));
    EXPECT_EQ(dynamic_cast<SandboxSolver &>(*sandboxed.layers().front())
                  .laneCount(),
              3u);

    // Worker: the Reset's lane under the guard, with the same two cold
    // rungs as in process and the parent's retry count; no front.
    wire::ResetFrame reset;
    reset.timeoutMs = 500;
    reset.retries = 3;
    std::vector<LaneConfig> cold;
    std::string error;
    ASSERT_TRUE(parsePortfolioLanes("cold", cold, error)) << error;
    SolverStack worker =
        buildSolverStack(f, workerStackSpec(reset, cold.front()));
    EXPECT_EQ(layerKinds(worker), (Kinds{"cold", "guard"}));
    auto &worker_guard = dynamic_cast<GuardedSolver &>(worker.top());
    EXPECT_EQ(worker_guard.fallbackCount(), 2u);
    EXPECT_EQ(worker_guard.options().retries, 3u);
    EXPECT_EQ(worker_guard.options().deadlineMs, 1500u);
    EXPECT_TRUE(worker_guard.options().cancellable);
}

TEST(SolverStack, LanesKeepTheirRosterEntries)
{
    // The sandbox sends each lane's entry text to its worker, tuning
    // included, instead of re-splitting the raw spec.
    std::vector<LaneConfig> lanes;
    std::string error;
    ASSERT_TRUE(parsePortfolioLanes("default,cold:random_seed=3", lanes,
                                    error))
        << error;
    ASSERT_EQ(lanes.size(), 2u);
    EXPECT_EQ(lanes[0].entry, "default");
    EXPECT_EQ(lanes[1].entry, "cold:random_seed=3");
    EXPECT_EQ(lanes[1].name, "cold");
    EXPECT_EQ(defaultPortfolioSpec(3), "default,int2bv,cold");
    EXPECT_EQ(defaultPortfolioLanes(2).back().entry, "cold");
}

} // namespace
} // namespace keq::smt
