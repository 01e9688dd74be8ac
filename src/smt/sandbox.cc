#include "src/smt/sandbox.h"

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <thread>

#include "src/smt/term_factory.h"
#include "src/support/diagnostics.h"
#include "src/support/rng.h"

namespace keq::smt {

namespace {

using Clock = std::chrono::steady_clock;

/** Poll granularity of a read: bounds how late a cancel is seen. */
constexpr unsigned kReadSliceMs = 10;
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

/** Milliseconds left until @p deadline; 0 once it has passed. */
unsigned
msUntil(Clock::time_point deadline)
{
    auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - Clock::now());
    return left.count() > 0 ? static_cast<unsigned>(left.count()) : 0;
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
    // A polite Shutdown lets each worker flush and exit. Every worker
    // gets it before any is waited for, so they exit in parallel, and
    // one grace period, shared by the whole pool, escalates to SIGKILL
    // for the ones still running when it ends.
    for (auto &slot : slots_) {
        if (slot->alive) {
            slot->chaosPid = 0;
            slot->proc.writeAll(wire::encodeShutdown());
        }
    }
    Clock::time_point graceEnd =
        Clock::now() + std::chrono::milliseconds(kReapGraceMs);
    for (auto &slot : slots_) {
        if (slot->alive) {
            slot->proc.waitOrKill(msUntil(graceEnd));
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

bool
WorkerSupervisor::queryCancelled(const std::atomic<bool> *interrupted) const
{
    return (interrupted != nullptr &&
            interrupted->load(std::memory_order_relaxed)) ||
           options_.cancel.cancelled();
}

WorkerSupervisor::Slot &
WorkerSupervisor::leaseSlot()
{
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
        for (auto &slot : slots_) {
            if (!slot->busy) {
                slot->busy = true;
                return *slot;
            }
        }
        slotFree_.wait(lock);
    }
}

void
WorkerSupervisor::releaseSlot(Slot &slot)
{
    {
        std::unique_lock<std::mutex> lock(mutex_);
        slot.busy = false;
    }
    slotFree_.notify_one();
}

support::ExitStatus
WorkerSupervisor::reapWorker(Slot &slot)
{
    slot.chaosPid = 0; // stop the chaos thread signalling this pid
    support::ExitStatus status = slot.proc.waitOrKill(kReapGraceMs);
    slot.alive = false;
    slot.sessionId = 0;
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
    slot.lastRssKb = 0;
    slot.chaosPid = slot.proc.pid();
    return true;
}

bool
WorkerSupervisor::dispatchQuery(Slot &slot, uint64_t sessionId,
                                Lane lane, bool captureModels,
                                uint64_t seq,
                                const std::vector<Term> &assertions,
                                unsigned timeoutMs,
                                const std::atomic<bool> *interrupted,
                                SolverStats &transport,
                                std::string &spawnError)
{
    // Bounded respawn + redispatch: a worker that dies *here* has not
    // consumed the query, so it is respawned and the query redispatched;
    // a death after dispatch costs exactly this query (classified by
    // awaitResult).
    for (unsigned attempt = 0; attempt < options_.spawnAttempts &&
                               !queryCancelled(interrupted);
         ++attempt) {
        if (!slot.alive && !spawnWorker(slot, spawnError, transport))
            continue;
        if (slot.sessionId != sessionId || slot.lane != lane ||
            slot.captureModels != captureModels) {
            wire::ResetFrame reset;
            reset.timeoutMs = timeoutMs;
            reset.memoryBudgetMb = options_.memoryBudgetMb;
            reset.retries = options_.retries;
            reset.captureModels = captureModels;
            reset.lane = lane;
            std::string bytes = wire::encodeReset(reset);
            if (!slot.proc.writeAll(bytes)) {
                reapWorker(slot);
                ++transport.workerCrashes;
                continue;
            }
            transport.wireBytesSent += bytes.size();
            slot.sessionId = sessionId;
            slot.lane = lane;
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

WorkerSupervisor::QueryOutcome
WorkerSupervisor::solve(uint64_t sessionId,
                        const std::vector<Term> &assertions,
                        unsigned timeoutMs,
                        const std::atomic<bool> *interrupted, Lane lane,
                        bool captureModels)
{
    QueryOutcome out;
    if (!started_) {
        out.failureKind = FailureKind::WorkerKilled;
        out.unknownReason = "sandbox supervisor not started";
        return out;
    }

    SolverStats transport;
    Slot &slot = leaseSlot();
    uint64_t seq = nextQuerySeq_.fetch_add(1);
    std::string spawnError;
    if (dispatchQuery(slot, sessionId, lane, captureModels, seq,
                      assertions, timeoutMs, interrupted, transport,
                      spawnError)) {
        awaitResult(slot, seq, interrupted, transport, out);
    } else if (queryCancelled(interrupted)) {
        out.failureKind = FailureKind::Cancelled;
        out.unknownReason = "cancelled";
    } else {
        out.failureKind = FailureKind::WorkerKilled;
        out.unknownReason =
            "cannot dispatch the query to a sandbox worker" +
            (spawnError.empty() ? std::string() : ": " + spawnError);
    }
    releaseSlot(slot);

    out.stats += transport;
    bumpTotals(transport);
    return out;
}

void
WorkerSupervisor::awaitResult(Slot &slot, uint64_t seq,
                              const std::atomic<bool> *interrupted,
                              SolverStats &transport, QueryOutcome &out)
{
    auto fail = [&](FailureKind kind, std::string reason) {
        out.result = SatResult::Unknown;
        out.failureKind = kind;
        out.unknownReason = std::move(reason);
    };
    // The worker is beyond saving: kill it and count a crash.
    auto killWorker = [&](std::string reason) {
        slot.proc.kill(SIGKILL);
        reapWorker(slot);
        ++transport.workerCrashes;
        fail(FailureKind::WorkerKilled, std::move(reason));
    };

    std::string buf; // partial frame bytes (readExact accumulates)
    uint32_t frameLen = 0;
    bool haveHeader = false;
    Clock::time_point lastFrame = Clock::now();
    for (;;) {
        if (queryCancelled(interrupted)) {
            // Cancellation beats every other classification: kill the
            // worker (the query is abandoned) and report Cancelled so
            // the caller never journals this verdict.
            slot.proc.kill(SIGKILL);
            reapWorker(slot);
            fail(FailureKind::Cancelled, "cancelled");
            return;
        }
        size_t want = haveHeader ? frameLen : 4;
        support::IoStatus st =
            slot.proc.readExact(buf, want - buf.size(), kReadSliceMs);
        if (st == support::IoStatus::Timeout) {
            if (elapsedMs(lastFrame) > options_.heartbeatGraceMs) {
                // Silent worker: wedged in native code, stopped, or
                // spinning without heartbeats. A timeout, not a crash:
                // nothing showed the query crashed.
                slot.proc.kill(SIGKILL);
                reapWorker(slot);
                ++transport.heartbeatTimeouts;
                fail(FailureKind::Timeout, "worker heartbeat deadline");
                return;
            }
            continue;
        }
        if (st != support::IoStatus::Ok) {
            support::ExitStatus dead = reapWorker(slot);
            ++transport.workerCrashes;
            fail(classifyWorkerDeath(dead, slot.lastRssKb,
                                     options_.workerMemoryMb),
                 "worker died (" + dead.describe() + ")");
            return;
        }
        if (!haveHeader) {
            wire::Decoder dec(buf);
            dec.u32(frameLen);
            if (frameLen == 0 || frameLen > wire::kMaxFramePayload) {
                killWorker("worker sent a corrupt frame");
                return;
            }
            haveHeader = true;
            buf.clear();
            continue;
        }

        transport.wireBytesReceived += 4 + buf.size();
        lastFrame = Clock::now();
        std::string payload = std::move(buf);
        buf.clear();
        haveHeader = false;

        wire::FrameType type;
        std::string body;
        if (!wire::splitFrame(payload, type, body)) {
            killWorker("worker sent an unknown frame type");
            return;
        }
        std::string error;
        switch (type) {
        case wire::FrameType::Heartbeat: {
            wire::HeartbeatFrame beat;
            if (wire::decodeHeartbeat(body, beat, error))
                slot.lastRssKb = beat.rssKb;
            break;
        }
        case wire::FrameType::Result: {
            wire::ResultFrame result;
            if (!wire::decodeResult(body, result, error) ||
                result.seq != seq) {
                killWorker(error.empty()
                               ? "worker answered the wrong query"
                               : "corrupt result frame: " + error);
                return;
            }
            slot.backoffMs = 0;
            out.stats = result.stats;
            // Only an answer with no failure attached is definite.
            if (result.failureKind == FailureKind::None &&
                result.result != SatResult::Unknown) {
                out.result = result.result;
                out.model = std::move(result.model);
            } else {
                fail(result.failureKind != FailureKind::None
                         ? result.failureKind
                         : FailureKind::SolverUnknown,
                     std::move(result.unknownReason));
            }
            return;
        }
        case wire::FrameType::Error: {
            std::string message;
            wire::decodeError(body, message);
            slot.proc.kill(SIGKILL);
            reapWorker(slot);
            ++transport.workerCrashes;
            fail(FailureKind::SolverCrash,
                 "worker rejected query: " + message);
            return;
        }
        default:
            killWorker("unexpected frame from worker");
            return;
        }
    }
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
                             WorkerSupervisor &supervisor, Lane lane)
    : factory_(factory), supervisor_(supervisor),
      sessionId_(supervisor.newSessionId()), lane_(lane)
{}

SatResult
SandboxSolver::checkSat(const std::vector<Term> &assertions)
{
    interrupted_.store(false, std::memory_order_relaxed);
    ++stats_.queries;
    WorkerSupervisor::QueryOutcome outcome =
        supervisor_.solve(sessionId_, assertions, timeoutMs_,
                          &interrupted_, lane_, captureModels_);
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
