#ifndef KEQ_SMT_SANDBOX_H
#define KEQ_SMT_SANDBOX_H

/**
 * @file
 * Out-of-process solver sandbox: supervised worker pool with crash
 * containment.
 *
 * The GuardedSolver contains *in-process* failures (exceptions, soft
 * timeouts), but a solver that segfaults, triggers the kernel OOM
 * killer, or wedges inside native code takes the whole validation run
 * with it. The sandbox moves the entire solver stack into child
 * processes running under hard setrlimit caps (RLIMIT_AS, RLIMIT_CPU,
 * RLIMIT_CORE=0) so that the worst a query can do is kill its worker:
 *
 *  - **WorkerSupervisor** owns a fixed pool of worker slots. Each
 *    leased slot runs one `keq-solver-worker` child speaking the wire
 *    protocol (src/smt/wire.h) over its stdin/stdout pipes. The
 *    supervisor ships queries, enforces a per-query heartbeat deadline,
 *    classifies worker deaths from the waitpid status (exit code 77 or
 *    a signal near the memory cap => FailureKind::WorkerOom, any other
 *    abnormal death => WorkerKilled), and respawns dead workers with
 *    capped, jittered exponential backoff. Exactly the query that was
 *    in flight on a dying worker is lost — the verdict set of a run is
 *    otherwise identical to the in-process pipeline's.
 *
 *  - **SandboxSolver** adapts one supervisor session to the Solver
 *    interface so the checker cannot tell it is talking to another
 *    process. Each SandboxSolver is a session: the worker builds a
 *    fresh TermFactory and the session lane's guarded backend
 *    (workerStackSpec) on the first query of a session (a Reset
 *    frame), so per-function variable namespaces never collide inside
 *    a long-lived worker. The rewrite/slice/cache front stays in the
 *    parent; a Sat Result carries the worker's model back when the
 *    session captures models, so the parent's model reuse sees it.
 *
 *  - **Chaos.** When chaosKillRate > 0 the supervisor runs a chaos
 *    thread delivering real SIGKILL/SIGSEGV to live, busy workers —
 *    the integration tests drive genuine process deaths through the
 *    exact recovery path production failures take.
 */

#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "src/smt/solver.h"
#include "src/smt/wire.h"
#include "src/support/cancellation.h"
#include "src/support/subprocess.h"

namespace keq::smt {

/** Exit code a worker uses to self-report an allocation failure. */
constexpr int kWorkerOomExitCode = 77;

/** Pool-wide sandbox configuration. */
struct SandboxOptions
{
    /** Worker binary; empty => discoverWorkerBinary(). */
    std::string workerPath;
    /** Pool size; solve() blocks while every worker is busy. */
    unsigned workers = 1;
    /** Hard RLIMIT_AS cap per worker in MB (0 = uncapped). */
    unsigned workerMemoryMb = 0;
    /** Hard RLIMIT_CPU cap per worker in seconds (0 = uncapped). */
    unsigned workerCpuSeconds = 0;
    /** Soft solver memory budget forwarded into the worker stack. */
    unsigned memoryBudgetMb = 0;
    /** The worker guard's same-rung retries (GuardedSolverOptions). */
    unsigned retries = 1;
    /** Worker heartbeat cadence while a query is in flight. */
    unsigned heartbeatIntervalMs = 250;
    /**
     * Max silence (no Result, no Heartbeat) before the supervisor
     * declares the worker wedged, kills it and classifies Timeout.
     */
    unsigned heartbeatGraceMs = 5000;
    /** Ceiling of the jittered exponential respawn backoff. */
    unsigned maxRespawnBackoffMs = 2000;
    /** Attempts to spawn a worker before giving up on a query. */
    unsigned spawnAttempts = 3;

    /**
     * Chaos monkey: per-tick probability that each busy worker is shot
     * with a real SIGKILL or SIGSEGV. 0 disables the chaos thread.
     */
    double chaosKillRate = 0.0;
    uint64_t chaosSeed = 0x5eed;
    unsigned chaosTickMs = 20;

    /** Cooperative cancellation (checked while awaiting results). */
    support::CancellationToken cancel;
};

/**
 * Locates the worker binary: an explicit path wins, then the
 * KEQ_SOLVER_WORKER environment variable, then `keq-solver-worker`
 * next to the running executable, then `../tools/keq-solver-worker`
 * relative to it (test binaries live in sibling directories). Returns
 * "" when nothing executable is found — callers degrade gracefully.
 */
std::string discoverWorkerBinary(const std::string &explicitPath);

/**
 * Classifies a dead worker. @p lastRssKb is the worker's last
 * heartbeat-reported resident set; a signal death close to the hard
 * memory cap is attributed to the cap (the kernel delivers plain
 * SIGSEGV/SIGKILL for rlimit breaches, so proximity is the only
 * available evidence).
 */
FailureKind classifyWorkerDeath(const support::ExitStatus &status,
                                uint64_t lastRssKb,
                                unsigned workerMemoryMb);

/** Supervised pool of sandboxed solver workers. */
class WorkerSupervisor
{
  public:
    explicit WorkerSupervisor(SandboxOptions options);
    ~WorkerSupervisor();

    WorkerSupervisor(const WorkerSupervisor &) = delete;
    WorkerSupervisor &operator=(const WorkerSupervisor &) = delete;

    /**
     * Resolves the worker binary and starts the chaos thread. Workers
     * themselves spawn lazily on first lease. Returns false (with a
     * diagnostic) when no worker binary can be found.
     */
    bool start(std::string &error);

    /**
     * Asks every live worker to shut down, then reaps them all, killing
     * any that outstay the grace period; idempotent.
     */
    void stop();

    bool started() const { return started_; }
    const std::string &workerPath() const { return workerPath_; }

    /** Outcome of one sandboxed query. */
    struct QueryOutcome
    {
        SatResult result = SatResult::Unknown;
        FailureKind failureKind = FailureKind::None;
        std::string unknownReason;
        /**
         * Per-query stats: the worker stack's own delta (cache,
         * incremental, guard counters) plus the supervisor's transport
         * counters (wire bytes, crashes, restarts, heartbeat
         * timeouts). Verdict counters inside are the *worker's*; the
         * SandboxSolver folds this via foldNonVerdictStats.
         */
        SolverStats stats;
        /** The worker's model of a Sat answer, when the session
         *  captures models. */
        std::optional<Assignment> model;
    };

    /**
     * Ships one checkSat to a free worker and blocks for the outcome.
     * @p sessionId groups queries that share a TermFactory (variable
     * namespace); the supervisor resets a worker whenever it switches
     * sessions, lanes or model capture, and the worker builds the
     * session's backend from @p lane. @p interrupted, when non-null, is
     * polled while awaiting the result — setting it cancels the query
     * by killing its worker (classified Cancelled, not a crash).
     * @p captureModels asks the worker to send back the model of a Sat
     * answer, which lands in the outcome's model. A worker that dies
     * mid-query costs exactly this query, classified from its exit
     * status; the next query respawns it.
     */
    QueryOutcome solve(uint64_t sessionId,
                       const std::vector<Term> &assertions,
                       unsigned timeoutMs,
                       const std::atomic<bool> *interrupted, Lane lane,
                       bool captureModels);

    /** Fresh session identifier (never 0). */
    uint64_t newSessionId();

    /** Pool-lifetime transport counters (for logs and stats dumps). */
    SolverStats transportTotals() const;

    /**
     * Adjusts the chaos monkey's per-tick kill probability at runtime
     * (the chaos tests shoot the first query, then throttle to zero to
     * verify recovery). Only effective when the supervisor was started
     * with chaosKillRate > 0 — the chaos thread does not spawn late.
     */
    void setChaosKillRate(double rate)
    {
        chaosRate_.store(rate, std::memory_order_relaxed);
    }

  private:
    struct Slot
    {
        support::Subprocess proc;
        uint64_t sessionId = 0; ///< session the worker is reset to
        Lane lane = Lane::Default; ///< lane the session stack was built for
        bool captureModels = false; ///< the session sends models back
        uint64_t lastRssKb = 0;
        unsigned backoffMs = 0;
        std::atomic<int> chaosPid{0}; ///< signal target; 0 = not alive
        bool busy = false;
        bool alive = false;
        bool everSpawned = false; ///< distinguishes restarts from starts
    };

    /** True once @p interrupted or the pool's token is set. */
    bool queryCancelled(const std::atomic<bool> *interrupted) const;
    /** Leases a free slot, waiting while every slot is busy. */
    Slot &leaseSlot();
    void releaseSlot(Slot &slot);
    /**
     * Dispatch helper of solve(): respawn if needed, Reset on a
     * session, lane or capture switch, ship the Query. Returns false
     * when no worker took the query (every spawn or write failed).
     */
    bool dispatchQuery(Slot &slot, uint64_t sessionId, Lane lane,
                       bool captureModels, uint64_t seq,
                       const std::vector<Term> &assertions,
                       unsigned timeoutMs,
                       const std::atomic<bool> *interrupted,
                       SolverStats &transport,
                       std::string &spawnError);
    /**
     * Reads frames from @p slot's worker until the Result of query
     * @p seq, filling @p out; kills the worker on cancellation, a
     * heartbeat silence or a protocol violation.
     */
    void awaitResult(Slot &slot, uint64_t seq,
                     const std::atomic<bool> *interrupted,
                     SolverStats &transport, QueryOutcome &out);
    /** Spawns + handshakes a worker in @p slot (backoff applied). */
    bool spawnWorker(Slot &slot, std::string &error,
                     SolverStats &transport);
    /** Marks the worker dead, reaps it, and returns its exit status. */
    support::ExitStatus reapWorker(Slot &slot);
    void chaosLoop();
    void bumpTotals(const SolverStats &delta);

    SandboxOptions options_;
    std::string workerPath_;
    bool started_ = false;

    std::mutex mutex_; ///< slot lease state + slot vector
    std::condition_variable slotFree_;
    std::vector<std::unique_ptr<Slot>> slots_;

    std::atomic<uint64_t> nextSession_{1};
    std::atomic<uint64_t> nextQuerySeq_{1};

    mutable std::mutex totalsMutex_;
    SolverStats totals_;

    std::thread chaosThread_;
    std::atomic<bool> chaosStop_{false};
    std::atomic<double> chaosRate_{0.0};
};

/**
 * Solver facade over one WorkerSupervisor session. Construct one per
 * function validation (like any other per-worker solver stack); the
 * heavyweight pool is shared through the supervisor reference, and
 * the session's worker solves on @p lane.
 */
class SandboxSolver : public Solver
{
  public:
    SandboxSolver(TermFactory &factory, WorkerSupervisor &supervisor,
                  Lane lane = Lane::Default);

    Lane lane() const { return lane_; }

    SatResult checkSat(const std::vector<Term> &assertions) override;
    void setTimeoutMs(unsigned timeout_ms) override
    {
        timeoutMs_ = timeout_ms;
    }
    // No setMemoryBudgetMb: the soft budget is a session property the
    // Reset frame carries from SandboxOptions::memoryBudgetMb, and the
    // hard cap is the worker's rlimit.
    void interruptQuery() override;
    void enableModelCapture(bool enabled) override
    {
        captureModels_ = enabled;
    }
    bool lastModel(Assignment *out) const override;
    std::string lastUnknownReason() const override
    {
        return lastUnknownReason_;
    }
    FailureKind lastFailureKind() const override { return lastFailure_; }
    const SolverStats &stats() const override { return stats_; }

  protected:
    TermFactory &factory() override { return factory_; }

  private:
    TermFactory &factory_;
    WorkerSupervisor &supervisor_;
    uint64_t sessionId_;
    Lane lane_;
    unsigned timeoutMs_ = 0;
    bool captureModels_ = false;
    std::optional<Assignment> lastModel_;
    std::atomic<bool> interrupted_{false};
    std::string lastUnknownReason_;
    FailureKind lastFailure_ = FailureKind::None;
    SolverStats stats_;
};

} // namespace keq::smt

#endif // KEQ_SMT_SANDBOX_H
