#include "src/smt/sandbox.h"

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <thread>

#include "src/smt/portfolio_solver.h"
#include "src/smt/term_factory.h"
#include "src/support/diagnostics.h"
#include "src/support/rng.h"

namespace keq::smt {

namespace {

using Clock = std::chrono::steady_clock;

constexpr unsigned kReadSliceMs = 100;     ///< poll granularity
constexpr unsigned kGroupSliceMs = 10;     ///< per-lane poll in a race
constexpr unsigned kHandshakeMs = 10000;   ///< Ready deadline
constexpr unsigned kReapGraceMs = 500;     ///< voluntary-exit window
constexpr unsigned kMinBackoffMs = 25;

unsigned
elapsedMs(Clock::time_point since)
{
    return static_cast<unsigned>(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            Clock::now() - since)
            .count());
}

} // namespace

std::string
discoverWorkerBinary(const std::string &explicitPath)
{
    if (!explicitPath.empty()) {
        return support::isExecutableFile(explicitPath) ? explicitPath
                                                       : std::string();
    }
    if (const char *env = std::getenv("KEQ_SOLVER_WORKER")) {
        if (support::isExecutableFile(env))
            return env;
    }
    std::string dir = support::currentExecutableDir();
    if (dir.empty())
        return {};
    for (const char *relative :
         {"/keq-solver-worker", "/../tools/keq-solver-worker"}) {
        std::string candidate = dir + relative;
        if (support::isExecutableFile(candidate))
            return candidate;
    }
    return {};
}

FailureKind
classifyWorkerDeath(const support::ExitStatus &status, uint64_t lastRssKb,
                    unsigned workerMemoryMb)
{
    if (status.exited && status.exitCode == kWorkerOomExitCode)
        return FailureKind::WorkerOom;
    if (status.signaled && workerMemoryMb > 0) {
        // The kernel reports an RLIMIT_AS breach as a plain signal
        // (SIGSEGV from a failed stack/heap grow, or the OOM killer's
        // SIGKILL); attribute the death to the cap when the last
        // heartbeat put the worker within 80% of it.
        uint64_t capKb = uint64_t(workerMemoryMb) * 1024;
        if (lastRssKb >= capKb - capKb / 5)
            return FailureKind::WorkerOom;
    }
    return FailureKind::WorkerKilled;
}

WorkerSupervisor::WorkerSupervisor(SandboxOptions options)
    : options_(std::move(options))
{
    if (options_.workers == 0)
        options_.workers = 1;
    for (unsigned i = 0; i < options_.workers; ++i)
        slots_.push_back(std::make_unique<Slot>());
}

WorkerSupervisor::~WorkerSupervisor()
{
    stop();
}

bool
WorkerSupervisor::start(std::string &error)
{
    if (started_)
        return true;
    workerPath_ = discoverWorkerBinary(options_.workerPath);
    if (workerPath_.empty()) {
        error = options_.workerPath.empty()
                    ? "no keq-solver-worker binary found (set "
                      "KEQ_SOLVER_WORKER or --worker-path)"
                    : "worker binary not executable: " +
                          options_.workerPath;
        return false;
    }
    // Writing to a just-crashed worker must surface as EPIPE, not kill
    // the supervisor's process.
    std::signal(SIGPIPE, SIG_IGN);
    started_ = true;
    if (options_.chaosKillRate > 0.0) {
        chaosRate_.store(options_.chaosKillRate,
                         std::memory_order_relaxed);
        chaosStop_ = false;
        chaosThread_ = std::thread([this] { chaosLoop(); });
    }
    return true;
}

void
WorkerSupervisor::stop()
{
    if (chaosThread_.joinable()) {
        chaosStop_ = true;
        chaosThread_.join();
    }
    std::unique_lock<std::mutex> lock(mutex_);
    for (auto &slot : slots_) {
        if (slot->alive) {
            slot->chaosPid = 0;
            // A polite Shutdown lets the worker flush and exit; the
            // grace period escalates to SIGKILL for wedged ones.
            slot->proc.writeAll(wire::encodeShutdown());
            slot->proc.waitOrKill(kReapGraceMs);
            slot->alive = false;
        }
    }
    started_ = false;
}

uint64_t
WorkerSupervisor::newSessionId()
{
    return nextSession_.fetch_add(1);
}

SolverStats
WorkerSupervisor::transportTotals() const
{
    std::unique_lock<std::mutex> lock(totalsMutex_);
    return totals_;
}

void
WorkerSupervisor::bumpTotals(const SolverStats &delta)
{
    std::unique_lock<std::mutex> lock(totalsMutex_);
    totals_ += delta;
}

std::vector<WorkerSupervisor::Slot *>
WorkerSupervisor::leaseSlots(size_t n)
{
    // All-or-nothing under one lock: a group either grabs every slot it
    // needs in a single critical section or grabs none and waits. Two
    // concurrent groups can therefore never deadlock on partial leases
    // (one of them always completes first).
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
        std::vector<Slot *> free;
        for (auto &slot : slots_) {
            if (!slot->busy)
                free.push_back(slot.get());
        }
        if (free.size() >= n) {
            free.resize(n);
            for (Slot *slot : free)
                slot->busy = true;
            return free;
        }
        slotFree_.wait(lock);
    }
}

void
WorkerSupervisor::releaseSlot(Slot *slot)
{
    {
        std::unique_lock<std::mutex> lock(mutex_);
        slot->busy = false;
    }
    // notify_all, not notify_one: a group waiter needing several slots
    // must re-check on every release, and waking only one waiter could
    // starve it behind single-slot waiters.
    slotFree_.notify_all();
}

support::ExitStatus
WorkerSupervisor::reapWorker(Slot &slot)
{
    slot.chaosPid = 0; // stop the chaos thread signalling this pid
    support::ExitStatus status = slot.proc.waitOrKill(kReapGraceMs);
    slot.alive = false;
    slot.sessionId = 0;
    slot.strategy.clear();
    slot.backoffMs = slot.backoffMs == 0
                         ? kMinBackoffMs
                         : std::min(slot.backoffMs * 2,
                                    options_.maxRespawnBackoffMs);
    return status;
}

bool
WorkerSupervisor::spawnWorker(Slot &slot, std::string &error,
                              SolverStats &transport)
{
    if (slot.backoffMs > 0) {
        // Jittered backoff so a pool of crashed workers doesn't respawn
        // in lockstep.
        support::Rng rng(options_.chaosSeed ^
                         nextQuerySeq_.fetch_add(1));
        unsigned base = slot.backoffMs;
        unsigned wait = base / 2 + static_cast<unsigned>(
                                       rng.below(base / 2 + 1));
        std::this_thread::sleep_for(std::chrono::milliseconds(wait));
    }
    std::vector<std::string> argv = {workerPath_};
    if (options_.workerMemoryMb > 0)
        argv.push_back("--memory-mb=" +
                       std::to_string(options_.workerMemoryMb));
    if (options_.workerCpuSeconds > 0)
        argv.push_back("--cpu-seconds=" +
                       std::to_string(options_.workerCpuSeconds));
    argv.push_back("--heartbeat-ms=" +
                   std::to_string(options_.heartbeatIntervalMs));

    slot.proc = support::Subprocess();
    if (!slot.proc.spawn(argv, error))
        return false;

    // Handshake: the worker leads with Ready carrying its protocol
    // version; anything else (or silence) means a broken binary.
    std::string buf;
    Clock::time_point begin = Clock::now();
    uint32_t frameLen = 0;
    bool haveHeader = false;
    for (;;) {
        if (elapsedMs(begin) > kHandshakeMs) {
            error = "worker handshake timed out";
            reapWorker(slot);
            return false;
        }
        size_t want = haveHeader ? frameLen : 4;
        support::IoStatus st =
            slot.proc.readExact(buf, want - buf.size(), kReadSliceMs);
        if (st == support::IoStatus::Timeout)
            continue;
        if (st != support::IoStatus::Ok) {
            support::ExitStatus dead = reapWorker(slot);
            error = "worker died during handshake (" +
                    dead.describe() + ")";
            return false;
        }
        if (!haveHeader) {
            wire::Decoder dec(buf);
            dec.u32(frameLen);
            if (frameLen == 0 ||
                frameLen > wire::kMaxFramePayload) {
                error = "worker handshake sent a corrupt frame";
                reapWorker(slot);
                return false;
            }
            haveHeader = true;
            buf.clear();
            continue;
        }
        transport.wireBytesReceived += 4 + buf.size();
        wire::FrameType type;
        std::string body;
        wire::ReadyFrame ready;
        std::string decodeError;
        if (!wire::splitFrame(buf, type, body) ||
            type != wire::FrameType::Ready ||
            !wire::decodeReady(body, ready, decodeError)) {
            error = "worker handshake sent a non-Ready frame";
            reapWorker(slot);
            return false;
        }
        if (ready.protocolVersion != wire::kWorkerProtocolVersion) {
            error = "worker protocol version " +
                    std::to_string(ready.protocolVersion) +
                    " != supervisor " +
                    std::to_string(wire::kWorkerProtocolVersion);
            reapWorker(slot);
            return false;
        }
        break;
    }
    if (slot.everSpawned)
        ++transport.workerRestarts;
    slot.everSpawned = true;
    slot.alive = true;
    slot.sessionId = 0;
    slot.strategy.clear();
    slot.lastRssKb = 0;
    slot.chaosPid = slot.proc.pid();
    return true;
}

bool
WorkerSupervisor::dispatchQuery(Slot &slot, uint64_t sessionId,
                                const std::string &strategy,
                                bool captureModels, uint64_t seq,
                                const std::vector<Term> &assertions,
                                unsigned timeoutMs,
                                const std::atomic<bool> *interrupted,
                                SolverStats &transport,
                                std::string &spawnError)
{
    // Bounded respawn + redispatch: a worker that dies *here* has not
    // consumed the query, so it is respawned and the query redispatched;
    // a death after dispatch costs exactly this query (classified by
    // the caller's await loop).
    auto cancelled = [&] {
        return (interrupted != nullptr &&
                interrupted->load(std::memory_order_relaxed)) ||
               options_.cancel.cancelled();
    };
    for (unsigned attempt = 0;
         attempt < options_.spawnAttempts && !cancelled(); ++attempt) {
        if (!slot.alive && !spawnWorker(slot, spawnError, transport))
            continue;
        if (slot.sessionId != sessionId || slot.strategy != strategy ||
            slot.captureModels != captureModels) {
            wire::ResetFrame reset;
            reset.timeoutMs = timeoutMs;
            reset.memoryBudgetMb = options_.memoryBudgetMb;
            reset.retries = options_.retries;
            reset.captureModels = captureModels;
            reset.strategy = strategy;
            std::string bytes = wire::encodeReset(reset);
            if (!slot.proc.writeAll(bytes)) {
                reapWorker(slot);
                ++transport.workerCrashes;
                continue;
            }
            transport.wireBytesSent += bytes.size();
            slot.sessionId = sessionId;
            slot.strategy = strategy;
            slot.captureModels = captureModels;
        }
        wire::QueryFrame query;
        query.seq = seq;
        query.timeoutMs = timeoutMs;
        query.assertions = assertions;
        std::string bytes = wire::encodeQuery(query);
        if (!slot.proc.writeAll(bytes)) {
            reapWorker(slot);
            ++transport.workerCrashes;
            continue;
        }
        transport.wireBytesSent += bytes.size();
        return true;
    }
    return false;
}

namespace {

/** Per-lane bookkeeping for one portfolio race. */
struct LaneRun
{
    std::string strategy;
    bool finished = false;
    bool haveResult = false; ///< a Result frame (any kind) arrived
    bool cancelSent = false;
    Clock::time_point cancelAt{};
    Clock::time_point lastFrame{};
    std::string buf; ///< partial frame bytes (readExact accumulates)
    uint32_t frameLen = 0;
    bool haveHeader = false;
    SatResult result = SatResult::Unknown;
    FailureKind kind = FailureKind::None;
    std::string reason;
    SolverStats stats;
    std::optional<Assignment> model;
};

bool
isDefinite(const LaneRun &lane)
{
    return lane.haveResult && lane.kind == FailureKind::None &&
           lane.result != SatResult::Unknown;
}

} // namespace

WorkerSupervisor::QueryOutcome
WorkerSupervisor::solve(uint64_t sessionId,
                        const std::vector<Term> &assertions,
                        unsigned timeoutMs,
                        const std::atomic<bool> *interrupted,
                        const std::vector<std::string> &lanes,
                        bool captureModels)
{
    KEQ_ASSERT(!lanes.empty(), "WorkerSupervisor::solve: no lanes");
    QueryOutcome out;
    SolverStats transport;
    if (!started_) {
        out.failureKind = FailureKind::WorkerKilled;
        out.unknownReason = "sandbox supervisor not started";
        return out;
    }

    // Racing more lanes than the pool has workers would block the
    // atomic lease forever; degrade to the widest race that fits.
    size_t laneCount = std::min(lanes.size(), slots_.size());
    std::vector<Slot *> leased = leaseSlots(laneCount);
    uint64_t seq = nextQuerySeq_.fetch_add(1);

    auto cancelled = [&] {
        return (interrupted != nullptr &&
                interrupted->load(std::memory_order_relaxed)) ||
               options_.cancel.cancelled();
    };

    std::vector<LaneRun> runs(laneCount);
    size_t unfinished = 0;
    auto finishLane = [&](LaneRun &lane, FailureKind kind,
                          std::string reason) {
        lane.finished = true;
        lane.kind = kind;
        lane.reason = std::move(reason);
        --unfinished;
    };

    // Every lane gets the same query seq: a worker only ever has one
    // query in flight, so the seq disambiguates per-stream, and a
    // single seq lets one CancelFrame value serve the whole group.
    std::string spawnError;
    for (size_t i = 0; i < laneCount; ++i) {
        runs[i].strategy = lanes[i];
        runs[i].lastFrame = Clock::now();
        if (!cancelled() &&
            dispatchQuery(*leased[i], sessionId, lanes[i], captureModels,
                          seq, assertions, timeoutMs, interrupted,
                          transport, spawnError)) {
            ++unfinished;
        } else {
            // Dead on arrival; the race tolerates it as long as some
            // other lane dispatched.
            runs[i].finished = true;
            runs[i].kind = cancelled() ? FailureKind::Cancelled
                                       : FailureKind::WorkerKilled;
            runs[i].reason =
                "cannot dispatch lane '" + lanes[i] +
                "' to a sandbox worker" +
                (spawnError.empty() ? std::string()
                                    : ": " + spawnError);
        }
    }

    auto sendCancel = [&](LaneRun &lane, Slot &slot) {
        if (lane.finished || lane.cancelSent)
            return;
        wire::CancelFrame cancel;
        cancel.seq = seq;
        std::string bytes = wire::encodeCancel(cancel);
        if (slot.proc.writeAll(bytes))
            transport.wireBytesSent += bytes.size();
        // A failed write means the worker already died; the read side
        // of the pump will reap and classify it.
        lane.cancelSent = true;
        lane.cancelAt = Clock::now();
    };

    // --- Round-robin pump: first definite verdict wins ----------------
    int winner = -1;
    bool userCancelled = false;
    while (unfinished > 0) {
        if (cancelled()) {
            // Cancellation beats every other classification: kill the
            // workers (the query is abandoned) and report Cancelled so
            // the caller never journals this verdict.
            userCancelled = true;
            for (size_t i = 0; i < runs.size(); ++i) {
                if (runs[i].finished)
                    continue;
                leased[i]->proc.kill(SIGKILL);
                reapWorker(*leased[i]);
                finishLane(runs[i], FailureKind::Cancelled, "cancelled");
            }
            break;
        }
        for (size_t i = 0; i < runs.size() && unfinished > 0; ++i) {
            LaneRun &lane = runs[i];
            Slot &slot = *leased[i];
            if (lane.finished)
                continue;
            size_t want = lane.haveHeader ? lane.frameLen : 4;
            support::IoStatus st = slot.proc.readExact(
                lane.buf, want - lane.buf.size(), kGroupSliceMs);
            if (st == support::IoStatus::Timeout) {
                if (lane.cancelSent &&
                    elapsedMs(lane.cancelAt) > kReapGraceMs) {
                    // The loser ignored its Cancel frame (wedged in
                    // native code); reap it the hard way. Still a
                    // cancellation, not a timeout: the race was over.
                    slot.proc.kill(SIGKILL);
                    reapWorker(slot);
                    finishLane(lane, FailureKind::Cancelled,
                               "cancelled (killed after grace)");
                } else if (elapsedMs(lane.lastFrame) >
                           options_.heartbeatGraceMs) {
                    // Silent worker: wedged in native code, stopped, or
                    // spinning without heartbeats. A timeout, not a
                    // crash: nothing showed the query crashed.
                    slot.proc.kill(SIGKILL);
                    reapWorker(slot);
                    ++transport.heartbeatTimeouts;
                    finishLane(lane, FailureKind::Timeout,
                               "worker heartbeat deadline");
                }
                continue;
            }
            if (st != support::IoStatus::Ok) {
                support::ExitStatus dead = reapWorker(slot);
                ++transport.workerCrashes;
                // A loser dying after its Cancel is still just a
                // cancellation; an uncancelled lane's death is a real
                // (contained) failure of that lane only.
                finishLane(lane,
                           lane.cancelSent
                               ? FailureKind::Cancelled
                               : classifyWorkerDeath(
                                     dead, slot.lastRssKb,
                                     options_.workerMemoryMb),
                           "worker died (" + dead.describe() + ")");
                continue;
            }
            if (!lane.haveHeader) {
                wire::Decoder dec(lane.buf);
                dec.u32(lane.frameLen);
                if (lane.frameLen == 0 ||
                    lane.frameLen > wire::kMaxFramePayload) {
                    slot.proc.kill(SIGKILL);
                    reapWorker(slot);
                    ++transport.workerCrashes;
                    finishLane(lane, FailureKind::WorkerKilled,
                               "worker sent a corrupt frame");
                    continue;
                }
                lane.haveHeader = true;
                lane.buf.clear();
                continue;
            }

            transport.wireBytesReceived += 4 + lane.buf.size();
            lane.lastFrame = Clock::now();
            std::string payload = std::move(lane.buf);
            lane.buf.clear();
            lane.haveHeader = false;

            wire::FrameType type;
            std::string body;
            if (!wire::splitFrame(payload, type, body)) {
                slot.proc.kill(SIGKILL);
                reapWorker(slot);
                ++transport.workerCrashes;
                finishLane(lane, FailureKind::WorkerKilled,
                           "worker sent an unknown frame type");
                continue;
            }
            switch (type) {
            case wire::FrameType::Heartbeat: {
                wire::HeartbeatFrame beat;
                std::string error;
                if (wire::decodeHeartbeat(body, beat, error))
                    slot.lastRssKb = beat.rssKb;
                break;
            }
            case wire::FrameType::Result: {
                wire::ResultFrame result;
                std::string error;
                if (!wire::decodeResult(body, result, error) ||
                    result.seq != seq) {
                    slot.proc.kill(SIGKILL);
                    reapWorker(slot);
                    ++transport.workerCrashes;
                    finishLane(lane, FailureKind::WorkerKilled,
                               error.empty()
                                   ? "worker answered the wrong query"
                                   : "corrupt result frame: " + error);
                    break;
                }
                lane.haveResult = true;
                lane.result = result.result;
                lane.stats = result.stats;
                lane.model = std::move(result.model);
                slot.backoffMs = 0;
                finishLane(lane, result.failureKind,
                           result.unknownReason);
                if (isDefinite(lane) && winner < 0) {
                    winner = static_cast<int>(i);
                    for (size_t j = 0; j < runs.size(); ++j) {
                        if (j != i)
                            sendCancel(runs[j], *leased[j]);
                    }
                }
                break;
            }
            case wire::FrameType::Error: {
                std::string message;
                wire::decodeError(body, message);
                slot.proc.kill(SIGKILL);
                reapWorker(slot);
                ++transport.workerCrashes;
                finishLane(lane, FailureKind::SolverCrash,
                           "worker rejected query: " + message);
                break;
            }
            default:
                slot.proc.kill(SIGKILL);
                reapWorker(slot);
                ++transport.workerCrashes;
                finishLane(lane, FailureKind::WorkerKilled,
                           "unexpected frame from worker");
                break;
            }
        }
    }

    // --- Classify the race ---------------------------------------------
    for (const LaneRun &lane : runs)
        out.stats += lane.stats;

    // The race is over: free its slots, so the re-check below can
    // lease one even when the race took the whole pool.
    for (Slot *slot : leased)
        releaseSlot(slot);

    // A loser can answer after its Cancel interrupted the check, and Z3
    // can answer wrongly from a check cut short. Such an answer is
    // re-checked by an untuned lane on a worker, like any other query:
    // Z3 never runs in this process. A re-check that fails, times out
    // or is cancelled answers Unknown and leaves the contradiction
    // standing; a cancelled one also cancels the whole query.
    std::vector<LaneAnswer> answers;
    for (const LaneRun &lane : runs) {
        answers.push_back({isDefinite(lane) ? lane.result
                                            : SatResult::Unknown,
                           lane.cancelSent});
    }
    bool disagree = !userCancelled && lanesDisagree(answers, [&] {
        QueryOutcome recheck = solve(sessionId, assertions, timeoutMs,
                                     interrupted, {"cold"}, false);
        out.stats += recheck.stats;
        userCancelled = recheck.failureKind == FailureKind::Cancelled;
        return recheck.failureKind == FailureKind::None
                   ? recheck.result
                   : SatResult::Unknown;
    });
    for (size_t i = 0; i < runs.size(); ++i) {
        if (answers[i].result == SatResult::Unknown)
            runs[i].result = SatResult::Unknown;
    }

    if (userCancelled) {
        out.result = SatResult::Unknown;
        out.failureKind = FailureKind::Cancelled;
        out.unknownReason = "cancelled";
    } else if (disagree) {
        // Two lanes produced conflicting definite verdicts on the same
        // assertion set: a solver soundness bug. Refuse to pick a side.
        ++out.stats.crossLaneDisagreements;
        std::string detail;
        for (const LaneRun &lane : runs) {
            if (!isDefinite(lane))
                continue;
            if (!detail.empty())
                detail += ", ";
            detail += lane.strategy + "=" +
                      (lane.result == SatResult::Sat ? "sat" : "unsat");
        }
        out.result = SatResult::Unknown;
        out.failureKind = FailureKind::PortfolioDisagreement;
        out.unknownReason = "portfolio disagreement: " + detail;
    } else if (winner >= 0) {
        LaneRun &won = runs[static_cast<size_t>(winner)];
        out.result = won.result;
        out.model = std::move(won.model);
        out.failureKind = FailureKind::None;
        out.unknownReason.clear();
        // A single lane is no race: it wins nothing.
        if (laneCount > 1)
            ++out.stats.portfolioWins[std::min<size_t>(
                winner, SolverStats::kPortfolioMaxLanes - 1)];
        for (const LaneRun &lane : runs) {
            if (&lane != &won && lane.cancelSent && !isDefinite(lane))
                ++out.stats.portfolioCancellations;
        }
    } else {
        // Every lane failed. Surface the most informative lane: any
        // classified failure beats Cancelled (which here only marks
        // dead-on-arrival lanes of an already-failed race).
        const LaneRun *pick = &runs.front();
        for (const LaneRun &lane : runs) {
            if (pick->kind == FailureKind::Cancelled &&
                lane.kind != FailureKind::Cancelled)
                pick = &lane;
        }
        out.result = SatResult::Unknown;
        out.failureKind = pick->kind != FailureKind::None
                              ? pick->kind
                              : FailureKind::SolverUnknown;
        out.unknownReason = pick->reason;
    }

    out.stats += transport;
    bumpTotals(transport);
    return out;
}

void
WorkerSupervisor::chaosLoop()
{
    support::Rng rng(options_.chaosSeed);
    while (!chaosStop_.load(std::memory_order_relaxed)) {
        std::this_thread::sleep_for(
            std::chrono::milliseconds(options_.chaosTickMs));
        std::unique_lock<std::mutex> lock(mutex_);
        for (auto &slot : slots_) {
            if (!slot->busy)
                continue;
            int pid = slot->chaosPid.load(std::memory_order_relaxed);
            if (pid <= 0)
                continue;
            double roll =
                static_cast<double>(rng.below(1u << 20)) /
                static_cast<double>(1u << 20);
            if (roll < chaosRate_.load(std::memory_order_relaxed)) {
                // Real signals through the real kernel path: half the
                // kills are abrupt (SIGKILL), half look like solver
                // bugs (SIGSEGV).
                ::kill(pid, rng.below(2) == 0 ? SIGKILL : SIGSEGV);
            }
        }
    }
}

// --- SandboxSolver ------------------------------------------------------

SandboxSolver::SandboxSolver(TermFactory &factory,
                             WorkerSupervisor &supervisor,
                             std::vector<std::string> laneStrategies)
    : factory_(factory), supervisor_(supervisor),
      sessionId_(supervisor.newSessionId()),
      laneStrategies_(std::move(laneStrategies))
{
    if (laneStrategies_.empty())
        laneStrategies_.emplace_back(); // the worker's default lane
}

SatResult
SandboxSolver::checkSat(const std::vector<Term> &assertions)
{
    interrupted_.store(false, std::memory_order_relaxed);
    ++stats_.queries;
    WorkerSupervisor::QueryOutcome outcome =
        supervisor_.solve(sessionId_, assertions, timeoutMs_,
                          &interrupted_, laneStrategies_, captureModels_);
    switch (outcome.result) {
    case SatResult::Sat:
        ++stats_.sat;
        break;
    case SatResult::Unsat:
        ++stats_.unsat;
        break;
    case SatResult::Unknown:
        ++stats_.unknown;
        break;
    }
    // The worker already counted its own logical queries; fold in only
    // the work counters so this stack reports one query per checkSat.
    foldNonVerdictStats(stats_, outcome.stats);
    lastFailure_ = outcome.failureKind;
    lastUnknownReason_ = outcome.unknownReason;
    lastModel_.reset();
    if (outcome.result == SatResult::Sat)
        lastModel_ = std::move(outcome.model);
    return outcome.result;
}

bool
SandboxSolver::lastModel(Assignment *out) const
{
    if (!lastModel_)
        return false;
    *out = *lastModel_;
    return true;
}

void
SandboxSolver::interruptQuery()
{
    interrupted_.store(true, std::memory_order_relaxed);
}

} // namespace keq::smt
