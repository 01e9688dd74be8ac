/** @file Out-of-process solver sandbox: verdict parity with the
 *  in-process stack, worker-death classification, real mid-query kills
 *  with respawn, heartbeat deadlines, cancellation, and graceful
 *  degradation when no worker binary exists. The worker binary path is
 *  baked in at compile time (KEQ_WORKER_BIN). */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <dirent.h>
#include <sys/stat.h>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "src/smt/evaluator.h"
#include "src/smt/sandbox.h"
#include "src/smt/term_factory.h"
#include "src/smt/z3_solver.h"
#include "src/support/subprocess.h"

namespace keq::smt {
namespace {

SandboxOptions
baseOptions()
{
    SandboxOptions options;
    options.workerPath = KEQ_WORKER_BIN;
    options.workers = 1;
    return options;
}

/**
 * A query Z3 chews on for a long time (64-bit factoring): long enough
 * that a chaos kill, heartbeat deadline, or cancellation reliably lands
 * while the worker is mid-solve.
 */
std::vector<Term>
hardAssertions(TermFactory &f)
{
    Sort bv64 = Sort::bitVec(64);
    Term x = f.var("hard_x", bv64);
    Term y = f.var("hard_y", bv64);
    Term one = f.bvConst(64, 1);
    // 4022270711 * 2934055723: a semiprime of two random 32-bit
    // primes. Both factors are capped at 32 bits so the product cannot
    // wrap mod 2^64 — otherwise any odd x solves it via the modular
    // inverse and Z3 answers instantly. With the caps the only model
    // is the true factorization, which bit-blasting does not find in
    // test-scale wall time.
    Term cap = f.bvConst(64, 0x100000000ULL);
    Term product = f.bvConst(64, 0xa3c7961cd171ec7dULL);
    return {
        f.mkEq(f.bvMul(x, y), product),
        f.bvUgt(x, one),
        f.bvUgt(y, one),
        f.bvUlt(x, cap),
        f.bvUlt(y, cap),
    };
}

TEST(ClassifyWorkerDeath, TaxonomyFromExitStatus)
{
    support::ExitStatus oom_exit;
    oom_exit.exited = true;
    oom_exit.exitCode = kWorkerOomExitCode;
    EXPECT_EQ(classifyWorkerDeath(oom_exit, 0, 0),
              FailureKind::WorkerOom)
        << "self-reported bad_alloc";

    support::ExitStatus sigsegv;
    sigsegv.signaled = true;
    sigsegv.signal = SIGSEGV;
    EXPECT_EQ(classifyWorkerDeath(sigsegv, 1000, 0),
              FailureKind::WorkerKilled)
        << "no memory cap: a signal is just a kill";
    EXPECT_EQ(classifyWorkerDeath(sigsegv, 10 * 1024, 512),
              FailureKind::WorkerKilled)
        << "RSS far below the cap";
    // Last heartbeat within 20% of a 512 MB cap: the kernel's rlimit
    // enforcement (SIGSEGV on a failed mmap) is the likely killer.
    EXPECT_EQ(classifyWorkerDeath(sigsegv, 500 * 1024, 512),
              FailureKind::WorkerOom);

    support::ExitStatus odd_exit;
    odd_exit.exited = true;
    odd_exit.exitCode = 3;
    EXPECT_EQ(classifyWorkerDeath(odd_exit, 0, 0),
              FailureKind::WorkerKilled);
}

TEST(DiscoverWorkerBinary, ExplicitPathWinsAndMissingDegrades)
{
    EXPECT_EQ(discoverWorkerBinary(KEQ_WORKER_BIN), KEQ_WORKER_BIN);
    EXPECT_EQ(discoverWorkerBinary("/nonexistent/keq-solver-worker"),
              "");
}

TEST(WorkerSupervisor, StartFailsLoudlyWithoutABinary)
{
    SandboxOptions options;
    options.workerPath = "/nonexistent/keq-solver-worker";
    WorkerSupervisor supervisor(options);
    std::string error;
    EXPECT_FALSE(supervisor.start(error));
    EXPECT_NE(error.find("keq-solver-worker"), std::string::npos)
        << error;
    EXPECT_FALSE(supervisor.started());
}

TEST(WorkerSupervisor, StaleWorkerIsRefusedAtReady)
{
    // A worker from another build announces worker protocol 6 in its
    // Ready (u32 length 13, type 1, u32 version 6, u64 pid 0). The
    // supervisor must refuse it before it sends a v7 Reset.
    std::string path = ::testing::TempDir() + "keq-stale-worker.sh";
    {
        std::ofstream script(path);
        script << "#!/bin/sh\n"
                  "printf '\\015\\000\\000\\000\\001\\006\\000\\000\\000"
                  "\\000\\000\\000\\000\\000\\000\\000\\000'\n"
                  "exec cat >/dev/null\n";
    }
    ASSERT_EQ(::chmod(path.c_str(), 0755), 0);
    SandboxOptions options;
    options.workerPath = path;
    options.spawnAttempts = 1;
    WorkerSupervisor supervisor(options);
    std::string error;
    ASSERT_TRUE(supervisor.start(error)) << error;

    TermFactory f;
    SandboxSolver solver(f, supervisor);
    EXPECT_EQ(solver.checkSat({f.var("b", Sort::boolSort())}),
              SatResult::Unknown);
    EXPECT_EQ(solver.lastFailureKind(), FailureKind::WorkerKilled);
    EXPECT_NE(solver.lastUnknownReason().find(
                  "worker protocol version 6 != supervisor 7"),
              std::string::npos)
        << solver.lastUnknownReason();
    supervisor.stop();
    std::remove(path.c_str());
}

TEST(SandboxSolver, VerdictsMatchTheInProcessSolver)
{
    WorkerSupervisor supervisor(baseOptions());
    std::string error;
    ASSERT_TRUE(supervisor.start(error)) << error;

    // Several assertion sets spanning sat/unsat, solved both in-process
    // and through the sandbox from independent factories.
    for (int variant = 0; variant < 4; ++variant) {
        TermFactory local;
        TermFactory remote;
        auto build = [variant](TermFactory &f) -> std::vector<Term> {
            Sort bv32 = Sort::bitVec(32);
            Term x = f.var("x", bv32);
            Term y = f.var("y", bv32);
            switch (variant) {
              case 0: // sat: a satisfiable interval
                return {f.bvUlt(x, f.bvConst(32, 10)),
                        f.bvUgt(x, f.bvConst(32, 5))};
              case 1: // unsat: an empty interval
                return {f.bvUlt(x, f.bvConst(32, 5)),
                        f.bvUgt(x, f.bvConst(32, 10))};
              case 2: // unsat: x ^ y != y ^ x
                return {f.mkNot(f.mkEq(f.bvXor(x, y), f.bvXor(y, x)))};
              default: // sat: memory round-trip
              {
                Term mem = f.var("mem", Sort::memArray());
                Term addr = f.var("addr", Sort::bitVec(64));
                Term byte = f.var("byte", Sort::bitVec(8));
                return {f.mkEq(
                    f.select(f.store(mem, addr, byte), addr), byte)};
              }
            }
        };

        Z3Solver reference(local);
        SatResult expected = reference.checkSat(build(local));

        SandboxSolver sandboxed(remote, supervisor);
        sandboxed.enableModelCapture(true);
        std::vector<Term> assertions = build(remote);
        SatResult actual = sandboxed.checkSat(assertions);

        EXPECT_EQ(actual, expected) << "variant " << variant;
        EXPECT_EQ(sandboxed.lastFailureKind(), FailureKind::None);
        EXPECT_GT(sandboxed.stats().wireBytesSent, 0u);
        EXPECT_GT(sandboxed.stats().wireBytesReceived, 0u);

        // A Sat answer brings the worker's model back over the wire.
        // Variables the model leaves out read as zero, which is how the
        // cache's model reuse completes a pooled model.
        Assignment model;
        ASSERT_EQ(sandboxed.lastModel(&model), actual == SatResult::Sat)
            << "variant " << variant;
        if (actual != SatResult::Sat)
            continue;
        for (const char *name : {"x", "y"}) {
            if (!model.hasBv(name))
                model.setBv(name, support::ApInt(32, 0));
        }
        if (!model.hasBv("addr"))
            model.setBv("addr", support::ApInt(64, 0));
        if (!model.hasBv("byte"))
            model.setBv("byte", support::ApInt(8, 0));
        Evaluator eval(model);
        for (const Term &assertion : assertions)
            EXPECT_TRUE(eval.evalBool(assertion)) << "variant " << variant;
    }
    supervisor.stop();
}

TEST(SandboxSolver, SessionsIsolateVariableNamespaces)
{
    WorkerSupervisor supervisor(baseOptions());
    std::string error;
    ASSERT_TRUE(supervisor.start(error)) << error;

    // The same variable name at two different sorts, in two different
    // sessions sharing one worker. The Reset between sessions gives the
    // worker a fresh factory, so this must not trip the cross-query
    // collision defense.
    {
        TermFactory f;
        SandboxSolver solver(f, supervisor);
        Term v = f.var("v", Sort::bitVec(32));
        EXPECT_EQ(solver.checkSat({f.mkEq(v, f.bvConst(32, 1))}),
                  SatResult::Sat);
    }
    {
        TermFactory f;
        SandboxSolver solver(f, supervisor);
        Term v = f.var("v", Sort::boolSort());
        EXPECT_EQ(solver.checkSat({v}), SatResult::Sat);
        EXPECT_EQ(solver.lastFailureKind(), FailureKind::None);
    }
    supervisor.stop();
}

TEST(SandboxSolver, ChaosKillMidQueryIsContainedAndWorkerRespawns)
{
    SandboxOptions options = baseOptions();
    options.chaosKillRate = 1.0; // every tick shoots every busy worker
    options.chaosTickMs = 5;
    WorkerSupervisor supervisor(options);
    std::string error;
    ASSERT_TRUE(supervisor.start(error)) << error;

    TermFactory f;
    SandboxSolver solver(f, supervisor);
    SatResult result = solver.checkSat(hardAssertions(f));

    // The kill lands mid-solve: the query is lost (Unknown) and
    // classified as a worker death, never an in-process crash.
    EXPECT_EQ(result, SatResult::Unknown);
    FailureKind kind = solver.lastFailureKind();
    EXPECT_TRUE(kind == FailureKind::WorkerKilled ||
                kind == FailureKind::WorkerOom)
        << failureKindName(kind);
    EXPECT_GE(solver.stats().workerCrashes, 1u);

    // Containment: with the monkey throttled, later queries on the
    // same supervisor still get answered (the worker respawns). Retry
    // a few times in case a pre-throttle kill is still in flight.
    supervisor.setChaosKillRate(0.0);
    bool recovered = false;
    for (int attempt = 0; attempt < 50 && !recovered; ++attempt) {
        TermFactory fresh;
        SandboxSolver retry(fresh, supervisor);
        Term x = fresh.var("x", Sort::bitVec(8));
        SatResult trivial =
            retry.checkSat({fresh.mkEq(x, fresh.bvConst(8, 1))});
        recovered = trivial == SatResult::Sat &&
                    retry.lastFailureKind() == FailureKind::None;
    }
    EXPECT_TRUE(recovered) << "no query succeeded after the kill";
    EXPECT_GE(supervisor.transportTotals().workerRestarts, 1u);
    supervisor.stop();
}

TEST(SandboxSolver, HeartbeatSilenceBecomesATimeout)
{
    SandboxOptions options = baseOptions();
    // Worker beats every 60 s; the supervisor tolerates 300 ms of
    // silence. A long solve therefore trips the heartbeat deadline.
    options.heartbeatIntervalMs = 60000;
    options.heartbeatGraceMs = 300;
    WorkerSupervisor supervisor(options);
    std::string error;
    ASSERT_TRUE(supervisor.start(error)) << error;

    TermFactory f;
    SandboxSolver solver(f, supervisor);
    SatResult result = solver.checkSat(hardAssertions(f));
    EXPECT_EQ(result, SatResult::Unknown);
    EXPECT_EQ(solver.lastFailureKind(), FailureKind::Timeout);
    EXPECT_GE(solver.stats().heartbeatTimeouts, 1u);
    supervisor.stop();
}

TEST(SandboxSolver, InterruptClassifiesCancelledNotCrash)
{
    WorkerSupervisor supervisor(baseOptions());
    std::string error;
    ASSERT_TRUE(supervisor.start(error)) << error;

    TermFactory f;
    SandboxSolver solver(f, supervisor);
    std::thread interrupter([&solver] {
        std::this_thread::sleep_for(std::chrono::milliseconds(150));
        solver.interruptQuery();
    });
    SatResult result = solver.checkSat(hardAssertions(f));
    interrupter.join();

    EXPECT_EQ(result, SatResult::Unknown);
    EXPECT_EQ(solver.lastFailureKind(), FailureKind::Cancelled)
        << "cancellation must win over every death classification";
    supervisor.stop();
}

/** The live keq-solver-worker children of this process. */
size_t
liveWorkerChildren()
{
    DIR *proc = opendir("/proc");
    if (proc == nullptr)
        return 0;
    pid_t self = getpid();
    size_t count = 0;
    while (struct dirent *entry = readdir(proc)) {
        char *end = nullptr;
        long pid = std::strtol(entry->d_name, &end, 10);
        if (end == entry->d_name || *end != '\0' || pid <= 0)
            continue;
        std::ifstream stat("/proc/" + std::string(entry->d_name) +
                           "/stat");
        std::string line;
        if (!std::getline(stat, line))
            continue;
        // stat field 2 is "(comm)" (may contain spaces); field 4 is the
        // ppid, two tokens after the closing parenthesis.
        size_t open = line.find('(');
        size_t close = line.rfind(')');
        if (open == std::string::npos || close == std::string::npos)
            continue;
        std::string comm = line.substr(open + 1, close - open - 1);
        std::istringstream rest(line.substr(close + 1));
        std::string state;
        pid_t ppid = 0;
        rest >> state >> ppid;
        if (ppid == self && comm.rfind("keq-solver", 0) == 0 &&
            state != "Z")
            ++count;
    }
    closedir(proc);
    return count;
}

TEST(WorkerSupervisor, StopShutsTheWholePoolDownAtOnce)
{
    // Four workers whose heartbeat waits two seconds between beats:
    // stopping them must not wait out an interval per worker.
    SandboxOptions options = baseOptions();
    options.workers = 4;
    options.heartbeatIntervalMs = 2000;
    WorkerSupervisor supervisor(options);
    std::string error;
    ASSERT_TRUE(supervisor.start(error)) << error;

    // Four concurrent queries, each held for its 300 ms solver timeout,
    // occupy (and so spawn) all four workers.
    std::vector<std::thread> clients;
    for (int i = 0; i < 4; ++i) {
        clients.emplace_back([&supervisor] {
            TermFactory f;
            SandboxSolver solver(f, supervisor);
            solver.setTimeoutMs(300);
            solver.checkSat(hardAssertions(f));
        });
    }
    for (std::thread &client : clients)
        client.join();
    ASSERT_EQ(liveWorkerChildren(), 4u);

    auto begin = std::chrono::steady_clock::now();
    supervisor.stop();
    double seconds = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - begin)
                         .count();
    EXPECT_LT(seconds, 1.0);
    EXPECT_EQ(liveWorkerChildren(), 0u);
}

TEST(SandboxSolver, StatsKeepTheVerdictCounterContract)
{
    WorkerSupervisor supervisor(baseOptions());
    std::string error;
    ASSERT_TRUE(supervisor.start(error)) << error;

    TermFactory f;
    SandboxSolver solver(f, supervisor);
    Term x = f.var("x", Sort::bitVec(16));
    solver.checkSat({f.bvUlt(x, f.bvConst(16, 3))});
    solver.checkSat({f.bvUlt(x, f.bvConst(16, 3)),
                     f.bvUgt(x, f.bvConst(16, 7))});

    const SolverStats &stats = solver.stats();
    EXPECT_EQ(stats.queries, 2u);
    EXPECT_EQ(stats.sat + stats.unsat + stats.unknown, 2u)
        << "one verdict per logical query, worker work folded "
           "separately";
    supervisor.stop();
}

} // namespace
} // namespace keq::smt
