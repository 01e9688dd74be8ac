/**
 * @file
 * Sandboxed solver worker: one solver stack in a disposable process.
 *
 * Spawned by smt::WorkerSupervisor with its stdin/stdout as the wire
 * protocol transport (src/smt/wire.h). The process is the containment
 * boundary: hard setrlimit caps (RLIMIT_AS, RLIMIT_CPU, RLIMIT_CORE=0)
 * bound what any single query can cost the machine, and any crash —
 * solver segfault, allocation storm, wedged native code — kills this
 * process only, to be classified and absorbed by the supervisor.
 *
 * Protocol role: emit Ready, then serve Reset/Query/Shutdown frames.
 * A Reset begins a *session*: a fresh TermFactory plus the bottom of
 * the in-process stack, built by the same builder
 * (smt::workerStackSpec): the Reset's lane backend under the guard and
 * its pristine fallback rung, with the parent's retry count. The rewrite,
 * slice and cache front stays in the parent, which sees every query
 * first; a Sat Result carries the backend's model back when the Reset
 * asks for it, so the parent's model reuse keeps its hits. While a
 * query is in flight a heartbeat thread reports liveness and
 * resident-set size; the RSS rides into the supervisor's OOM
 * forensics.
 *
 * Exit codes: 0 on Shutdown/EOF, 2 on usage errors, 77 when a query
 * hits std::bad_alloc (self-reported OOM under the rlimit), 3 on a
 * transport failure (parent vanished).
 */

#include <atomic>
#include <condition_variable>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <memory>
#include <mutex>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include <sys/resource.h>
#include <unistd.h>

#include "src/smt/sandbox.h"
#include "src/smt/solver_stack.h"
#include "src/smt/term_factory.h"
#include "src/smt/wire.h"
#include "src/support/strings.h"

namespace {

using namespace keq;

/** Transport fds: stdin stays the inbound pipe; the outbound pipe is
 *  dup'ed away from fd 1 so stray printf()s (Z3 diagnostics, debug
 *  output) land on stderr instead of corrupting the protocol. */
int gWireIn = 0;
int gWireOut = -1;

std::mutex gWriteMutex;           // serializes whole frames
std::atomic<uint64_t> gInFlight{0}; // seq of the running query, 0 = idle
std::condition_variable gHeartbeatCv; // wakes the heartbeat to stop
bool gStopHeartbeat = false;          // guarded by gWriteMutex

bool
writeFrame(const std::string &bytes)
{
    size_t offset = 0;
    while (offset < bytes.size()) {
        ssize_t wrote = ::write(gWireOut, bytes.data() + offset,
                                bytes.size() - offset);
        if (wrote < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        offset += static_cast<size_t>(wrote);
    }
    return true;
}

bool
readExact(std::string &out, size_t bytes)
{
    char buffer[4096];
    while (bytes > 0) {
        size_t chunk = bytes < sizeof buffer ? bytes : sizeof buffer;
        ssize_t got = ::read(gWireIn, buffer, chunk);
        if (got < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        if (got == 0)
            return false; // parent closed the pipe
        out.append(buffer, static_cast<size_t>(got));
        bytes -= static_cast<size_t>(got);
    }
    return true;
}

/** Resident set in KB from /proc/self/statm (0 when unreadable). */
uint64_t
residentKb()
{
    std::FILE *statm = std::fopen("/proc/self/statm", "r");
    if (statm == nullptr)
        return 0;
    unsigned long totalPages = 0, residentPages = 0;
    int fields = std::fscanf(statm, "%lu %lu", &totalPages,
                             &residentPages);
    std::fclose(statm);
    if (fields != 2)
        return 0;
    long pageSize = ::sysconf(_SC_PAGESIZE);
    return uint64_t(residentPages) *
           static_cast<uint64_t>(pageSize > 0 ? pageSize : 4096) / 1024;
}

void
applyRlimits(unsigned memoryMb, unsigned cpuSeconds)
{
    // Never write core files: a chaos run SIGSEGVs workers on purpose
    // and must not litter (or slow down on) multi-GB dumps.
    struct rlimit none = {0, 0};
    ::setrlimit(RLIMIT_CORE, &none);
    if (memoryMb > 0) {
        rlim_t bytes = rlim_t(memoryMb) << 20;
        struct rlimit cap = {bytes, bytes};
        ::setrlimit(RLIMIT_AS, &cap);
    }
    if (cpuSeconds > 0) {
        struct rlimit cap = {cpuSeconds, cpuSeconds};
        ::setrlimit(RLIMIT_CPU, &cap);
    }
}

/** One Reset's worth of state: fresh factory + solver stack. */
struct Session
{
    explicit Session(const smt::wire::ResetFrame &config)
        : factory(std::make_unique<smt::TermFactory>()),
          stack(smt::buildSolverStack(*factory,
                                      smt::workerStackSpec(config))),
          guard(static_cast<smt::GuardedSolver &>(stack.top()))
    {
        guard.enableModelCapture(config.captureModels);
    }

    std::unique_ptr<smt::TermFactory> factory;
    smt::SolverStack stack;
    smt::GuardedSolver &guard; ///< the stack's top
    smt::wire::VarSortContext varSorts;
};

/** Liveness thread: beats only while a query is in flight, and only
 *  outside the moment the main thread is emitting that query's Result
 *  (the shared write mutex + in-flight re-check guarantee no frame is
 *  ever sequenced after its own Result). Its wait ends at once when
 *  the worker stops, so teardown never waits out an interval. */
void
heartbeatLoop(unsigned intervalMs)
{
    std::unique_lock<std::mutex> lock(gWriteMutex);
    while (!gHeartbeatCv.wait_for(lock,
                                  std::chrono::milliseconds(intervalMs),
                                  [] { return gStopHeartbeat; })) {
        uint64_t seq = gInFlight.load(std::memory_order_relaxed);
        if (seq == 0)
            continue;
        smt::wire::HeartbeatFrame beat;
        beat.querySeq = seq;
        beat.rssKb = residentKb();
        writeFrame(smt::wire::encodeHeartbeat(beat));
    }
}

int
workerMain(unsigned memoryMb, unsigned cpuSeconds, unsigned heartbeatMs)
{
    applyRlimits(memoryMb, cpuSeconds);
    // The supervisor owns this process's lifetime; a SIGINT aimed at
    // the operator's keqc run must not race the supervisor's own
    // teardown. SIGPIPE becomes an EPIPE write error.
    std::signal(SIGINT, SIG_IGN);
    std::signal(SIGPIPE, SIG_IGN);

    // Re-point the protocol away from fd 1 (see gWireOut above).
    gWireOut = ::dup(STDOUT_FILENO);
    if (gWireOut < 0)
        return 3;
    ::dup2(STDERR_FILENO, STDOUT_FILENO);

    {
        smt::wire::ReadyFrame ready;
        ready.protocolVersion = smt::wire::kWorkerProtocolVersion;
        ready.pid = static_cast<uint64_t>(::getpid());
        std::unique_lock<std::mutex> lock(gWriteMutex);
        if (!writeFrame(smt::wire::encodeReady(ready)))
            return 3;
    }

    std::thread heartbeat(heartbeatLoop,
                          heartbeatMs == 0 ? 250 : heartbeatMs);

    std::unique_ptr<Session> session;

    // Queries solve on their own thread so this loop keeps reading the
    // pipe during a solve and sees the parent close it. The parent
    // never pipelines a second Query/Reset before this one's Result, so
    // joinSolve() only waits for a query whose Result is on its way.
    std::thread solve;
    auto joinSolve = [&] {
        if (solve.joinable())
            solve.join();
    };

    int exitCode = 0;
    for (;;) {
        std::string header;
        if (!readExact(header, 4)) {
            // The parent closed the pipe: normal teardown. A query
            // still in flight has nobody left to answer; end it with
            // the process instead of solving on.
            if (gInFlight.load(std::memory_order_relaxed) != 0)
                std::_Exit(0);
            exitCode = 0;
            break;
        }
        smt::wire::Decoder headerDec(header);
        uint32_t length = 0;
        headerDec.u32(length);
        if (length == 0 || length > smt::wire::kMaxFramePayload) {
            exitCode = 3;
            break;
        }
        std::string payload;
        if (!readExact(payload, length)) {
            exitCode = 3;
            break;
        }
        smt::wire::FrameType type;
        std::string body;
        if (!smt::wire::splitFrame(payload, type, body)) {
            std::unique_lock<std::mutex> lock(gWriteMutex);
            writeFrame(smt::wire::encodeError("unknown frame type"));
            continue;
        }

        if (type == smt::wire::FrameType::Shutdown) {
            joinSolve();
            exitCode = 0;
            break;
        }
        if (type == smt::wire::FrameType::Reset) {
            smt::wire::ResetFrame config;
            std::string error;
            if (!smt::wire::decodeReset(body, config, error)) {
                std::unique_lock<std::mutex> lock(gWriteMutex);
                writeFrame(smt::wire::encodeError(
                    "corrupt reset frame: " + error));
                continue;
            }
            joinSolve(); // the old session must be idle before dying
            session.reset();
            session = std::make_unique<Session>(config);
            continue;
        }
        if (type != smt::wire::FrameType::Query) {
            std::unique_lock<std::mutex> lock(gWriteMutex);
            writeFrame(
                smt::wire::encodeError("unexpected frame from parent"));
            continue;
        }
        if (session == nullptr) {
            std::unique_lock<std::mutex> lock(gWriteMutex);
            writeFrame(
                smt::wire::encodeError("query before first reset"));
            continue;
        }

        joinSolve(); // the previous query's Result is already out

        smt::wire::QueryFrame query;
        std::string error;
        if (!smt::wire::decodeQuery(body, *session->factory,
                                    &session->varSorts, query, error)) {
            std::unique_lock<std::mutex> lock(gWriteMutex);
            writeFrame(
                smt::wire::encodeError("corrupt query: " + error));
            continue;
        }

        session->guard.setTimeoutMs(query.timeoutMs);

        // All frame decoding (factory mutation) happened above on this
        // thread; the solve thread only runs the solver stack, so the
        // frame pump and the solve never touch the factory
        // concurrently.
        Session *live = session.get();
        gInFlight.store(query.seq, std::memory_order_relaxed);
        solve = std::thread([live, query = std::move(query)] {
            smt::wire::ResultFrame result;
            result.seq = query.seq;
            smt::GuardedSolver &guard = live->guard;
            smt::SolverStats before = guard.stats();
            try {
                result.result = guard.checkSat(query.assertions);
                result.failureKind = guard.lastFailureKind();
                result.unknownReason = guard.lastUnknownReason();
                // Without capture the backend keeps no model.
                if (result.result == smt::SatResult::Sat &&
                    !guard.lastModel(&result.model.emplace()))
                    result.model.reset();
            } catch (const std::bad_alloc &) {
                // The rlimit tripped inside the solver. The heap may
                // be unusable; report via the exit code, not the wire.
                std::_Exit(smt::kWorkerOomExitCode);
            } catch (const std::exception &crash) {
                // The guard absorbs backend crashes while a rung
                // remains; one escaping means every rung failed.
                result.result = smt::SatResult::Unknown;
                result.failureKind = FailureKind::SolverCrash;
                result.unknownReason = crash.what();
            }
            result.stats = guard.stats() - before;

            std::unique_lock<std::mutex> lock(gWriteMutex);
            gInFlight.store(0, std::memory_order_relaxed);
            if (!writeFrame(smt::wire::encodeResult(result))) {
                // Parent vanished mid-reply; nothing left to serve.
                std::_Exit(3);
            }
        });
    }

    joinSolve();
    {
        std::unique_lock<std::mutex> lock(gWriteMutex);
        gStopHeartbeat = true;
    }
    gHeartbeatCv.notify_one();
    heartbeat.join();
    return exitCode;
}

} // namespace

int
main(int argc, char **argv)
{
    unsigned memoryMb = 0, cpuSeconds = 0, heartbeatMs = 250;
    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        bool malformed = false;
        auto number = [&](const char *prefix, unsigned &out) {
            size_t n = std::strlen(prefix);
            if (std::strncmp(arg, prefix, n) != 0)
                return false;
            // A value that silently became 0 would lift the cap.
            uint64_t value = 0;
            malformed = !support::parseU64(arg + n, value) ||
                        value > std::numeric_limits<unsigned>::max();
            out = static_cast<unsigned>(value);
            return true;
        };
        if (number("--memory-mb=", memoryMb) ||
            number("--cpu-seconds=", cpuSeconds) ||
            number("--heartbeat-ms=", heartbeatMs)) {
            if (!malformed)
                continue;
            std::fprintf(stderr,
                         "keq-solver-worker: malformed value in '%s'\n",
                         arg);
            return 2;
        }
        std::fprintf(stderr,
                     "keq-solver-worker: unknown option '%s'\n", arg);
        return 2;
    }
    return workerMain(memoryMb, cpuSeconds, heartbeatMs);
}
