#include "src/service/client.h"

#include <algorithm>
#include <chrono>
#include <deque>
#include <limits>
#include <optional>
#include <time.h>
#include <unistd.h>

#include "src/driver/checkpoint.h"
#include "src/service/job_options.h"
#include "src/support/journal.h"

namespace keq::service {

namespace wire = smt::wire;
using support::IoStatus;

namespace {

double
elapsedSeconds(std::chrono::steady_clock::time_point since)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - since)
        .count();
}

void
sleepMs(unsigned ms)
{
    struct timespec ts;
    ts.tv_sec = ms / 1000;
    ts.tv_nsec = static_cast<long>(ms % 1000) * 1000000L;
    ::nanosleep(&ts, nullptr);
}

uint64_t
splitmix64(uint64_t &state)
{
    uint64_t z = (state += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
}

/** Liveness-poll tick: bounds how late a heartbeat can fire. */
constexpr unsigned kHeartbeatTickMs = 200;

unsigned
elapsedMs(std::chrono::steady_clock::time_point since,
          std::chrono::steady_clock::time_point now)
{
    auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                  now - since)
                  .count();
    return ms < 0 ? 0u : static_cast<unsigned>(ms);
}

} // namespace

DaemonClient::DaemonClient(DaemonClientOptions options)
    : options_(std::move(options))
{
    // Jitter seed: distinct per process and per client object, so
    // concurrent keqc invocations desynchronize their backoff sleeps.
    jitterState_ = static_cast<uint64_t>(::getpid()) ^
                   (reinterpret_cast<uintptr_t>(this) << 16) ^
                   static_cast<uint64_t>(
                       std::chrono::steady_clock::now()
                           .time_since_epoch()
                           .count());
}

FailureKind
DaemonClient::classify(IoStatus status) const
{
    // The daemon is the worker here: a vanished daemon is the same
    // failure mode as a killed sandbox worker, and keqc's degradation
    // path treats it identically.
    if (status == IoStatus::Timeout)
        return FailureKind::Timeout;
    return FailureKind::WorkerKilled;
}

bool
DaemonClient::connect(std::string &error)
{
    endpoints_ = options_.endpoints;
    if (endpoints_.empty() && !options_.socketPath.empty())
        endpoints_.push_back(unixEndpoint(options_.socketPath));
    if (endpoints_.empty()) {
        error = "no daemon endpoints configured";
        failure_ = FailureKind::WorkerKilled;
        return false;
    }
    std::string aggregate;
    for (size_t i = 0; i < endpoints_.size(); ++i) {
        std::string attemptError;
        if (connectTo(endpoints_[i], attemptError)) {
            activeIndex_ = i;
            failure_ = FailureKind::None;
            return true;
        }
        if (!aggregate.empty())
            aggregate += "; ";
        aggregate += endpointToString(endpoints_[i]) + ": " +
                     attemptError;
    }
    error = aggregate;
    return false;
}

bool
DaemonClient::connectTo(const Endpoint &endpoint, std::string &error)
{
    int fd = -1;
    if (!connectEndpoint(endpoint, options_.connectTimeoutMs, fd,
                         error)) {
        failure_ = FailureKind::WorkerKilled;
        return false;
    }
    channel_ = WireChannel(fd);

    wire::ClientHelloFrame hello;
    hello.clientName = options_.clientName;
    if (!channel_.sendFrame(wire::encodeClientHello(hello))) {
        error = "failed to send hello";
        failure_ = FailureKind::WorkerKilled;
        close();
        return false;
    }
    std::string payload;
    IoStatus status =
        channel_.recvFrame(payload, options_.handshakeTimeoutMs);
    if (status != IoStatus::Ok) {
        error = status == IoStatus::Timeout
                    ? "handshake timed out"
                    : "connection closed during handshake";
        failure_ = classify(status);
        close();
        return false;
    }
    wire::FrameType type{};
    std::string body;
    std::string decodeError;
    if (!wire::splitFrame(payload, type, body)) {
        error = "malformed handshake reply";
        failure_ = FailureKind::WorkerKilled;
        close();
        return false;
    }
    if (type == wire::FrameType::HelloReject) {
        wire::HelloRejectFrame reject;
        if (wire::decodeHelloReject(body, reject, decodeError)) {
            error = "daemon rejected handshake: " + reject.message +
                    " (daemon protocol version " +
                    std::to_string(reject.supportedVersion) +
                    ", client " +
                    std::to_string(wire::kProtocolVersion) + ")";
        } else {
            error = "daemon rejected handshake";
        }
        failure_ = FailureKind::WorkerKilled;
        close();
        return false;
    }
    if (type != wire::FrameType::ServerHello ||
        !wire::decodeServerHello(body, serverHello_, decodeError)) {
        error = "unexpected handshake reply: " +
                std::string(wire::frameTypeName(type));
        failure_ = FailureKind::WorkerKilled;
        close();
        return false;
    }
    failure_ = FailureKind::None;
    return true;
}

bool
DaemonClient::reconnect(std::string &error)
{
    close();
    if (endpoints_.empty()) {
        error = "no daemon endpoints configured";
        return false;
    }
    unsigned backoffMs =
        std::max(1u, options_.reconnectBackoffInitialMs);
    unsigned rounds = std::max(1u, options_.reconnectRounds);
    std::string lastError = "no endpoints tried";
    for (unsigned round = 0; round < rounds; ++round) {
        if (round > 0) {
            // Jittered doubling sleep between passes: surviving
            // daemons see a spread-out reconnect herd, not a spike.
            unsigned jittered =
                backoffMs / 2 +
                static_cast<unsigned>(splitmix64(jitterState_) %
                                      (backoffMs / 2 + 1));
            sleepMs(jittered);
            backoffMs = std::min(
                std::max(1u, options_.reconnectBackoffMaxMs),
                backoffMs * 2);
        }
        // Advance first: the endpoint that just died is each pass's
        // last resort, the configured secondary its first.
        for (size_t step = 0; step < endpoints_.size(); ++step) {
            activeIndex_ = (activeIndex_ + 1) % endpoints_.size();
            if (connectTo(endpoints_[activeIndex_], lastError))
                return true;
        }
    }
    error = "reconnect exhausted after " + std::to_string(rounds) +
            " round(s) over " + std::to_string(endpoints_.size()) +
            " endpoint(s); last: " + lastError;
    return false;
}

IoStatus
DaemonClient::recvSupervised(std::string &payload, unsigned deadlineMs)
{
    auto start = std::chrono::steady_clock::now();
    bool pingOutstanding = false;
    auto pingSentAt = start;
    bool canPing = options_.heartbeatIntervalMs > 0;
    for (;;) {
        IoStatus status = channel_.waitReadable(kHeartbeatTickMs);
        if (status == IoStatus::Ok) {
            // Bytes are pending; the frame read itself only needs to
            // beat a peer that dies mid-frame, not a slow solve.
            unsigned frameBudget = options_.heartbeatTimeoutMs > 0
                                       ? options_.heartbeatTimeoutMs
                                       : deadlineMs;
            return channel_.recvFrame(payload, frameBudget);
        }
        if (status != IoStatus::Timeout)
            return status; // Eof or socket error: peer is gone
        auto now = std::chrono::steady_clock::now();
        unsigned idleMs = elapsedMs(start, now);
        if (idleMs >= deadlineMs)
            return IoStatus::Timeout;
        if (!canPing)
            continue;
        if (pingOutstanding) {
            if (elapsedMs(pingSentAt, now) >=
                options_.heartbeatTimeoutMs) {
                // Silent peer: no Pong, no FIN, no RST. Typed death
                // beats stalling out the whole verdict deadline.
                return IoStatus::Timeout;
            }
        } else if (idleMs >= options_.heartbeatIntervalMs) {
            wire::PingFrame ping;
            ping.nonce = splitmix64(jitterState_);
            if (!channel_.sendFrame(wire::encodePing(ping)))
                return IoStatus::Error;
            pingOutstanding = true;
            pingSentAt = now;
        }
    }
}

bool
DaemonClient::validateFunctions(
    const std::string &moduleText,
    const std::vector<std::string> &functions,
    const driver::PipelineOptions &options,
    std::vector<driver::FunctionReport> &reports,
    std::vector<bool> &decided, std::string &error)
{
    size_t n = functions.size();
    reports.assign(n, driver::FunctionReport{});
    decided.assign(n, false);
    if (!connected()) {
        error = "not connected";
        failure_ = FailureKind::WorkerKilled;
        return false;
    }

    wire::JobOptionsFrame jobOptions = encodeJobOptions(options);
    unsigned window = std::max(1u, options_.submitWindow);
    unsigned backoffMs = std::max(1u, options_.busyBackoffInitialMs);
    unsigned busyRounds = 0;   // consecutive all-Busy, nothing-in-flight
    bool deferSubmits = false; // Busy seen; hold resubmits until progress
    breakerTripped_ = false;

    // A deterministic fingerprint per job is the idempotency key a
    // failover resubmit rides on. Only a job that has *already been
    // sent once* claims its fingerprint on the wire — a first
    // submission carries 0, so identical jobs from distinct clients
    // still each exercise the daemon's real (cache-warm) solving path
    // rather than replaying each other's ledger entries. Fingerprints
    // are therefore computed only for resubmits, and the module text is
    // hashed at most once per call.
    std::optional<uint64_t> moduleHash;
    std::vector<char> everSubmitted(n, 0);

    std::vector<std::chrono::steady_clock::time_point> submitted(n);
    std::deque<size_t> toSubmit;
    for (size_t i = 0; i < n; ++i)
        toSubmit.push_back(i);
    size_t outstanding = 0;
    size_t done = 0;

    auto submitOne = [&](size_t idx) -> bool {
        wire::SubmitJobFrame job;
        job.jobId = static_cast<uint64_t>(idx) + 1;
        job.function = functions[idx];
        job.moduleText = moduleText;
        job.options = jobOptions;
        if (everSubmitted[idx]) {
            if (!moduleHash)
                moduleHash = support::fnv1a64(moduleText);
            job.fingerprint = jobFingerprint(
                *moduleHash, moduleText.size(), functions[idx],
                jobOptions);
        }
        everSubmitted[idx] = 1;
        submitted[idx] = std::chrono::steady_clock::now();
        if (!channel_.sendFrame(wire::encodeSubmitJob(job))) {
            error = "daemon connection lost while submitting " +
                    functions[idx];
            failure_ = FailureKind::WorkerKilled;
            return false;
        }
        ++outstanding;
        return true;
    };

    // Transport death mid-run: reconnect (cycling endpoints), put every
    // undecided function back on the submit queue, and resume. Jobs the
    // dead daemon already finished are served from its ledger by
    // fingerprint — the resubmit is idempotent, so this never
    // double-charges a quota or duplicates a journal append. Decided
    // verdicts are never touched. False = failover exhausted; the
    // caller degrades to local solving with failure_ already set.
    //
    // The no-progress budget below is what makes this terminate
    // against the nastiest peer: one that accepts connections and
    // completes handshakes but never answers a job (a wedged daemon, a
    // half-dead NAT mapping). Reconnection *succeeding* is not
    // progress — verdicts are. Failovers that decide nothing in
    // between are counted, and once every endpoint has had its chance
    // the run degrades instead of cycling forever.
    size_t doneAtLastFailover = std::numeric_limits<size_t>::max();
    unsigned fruitlessFailovers = 0;
    auto failover = [&](const std::string &why) -> bool {
        if (done == doneAtLastFailover) {
            ++fruitlessFailovers;
            if (fruitlessFailovers > endpoints_.size()) {
                error = why + "; giving up after " +
                        std::to_string(fruitlessFailovers) +
                        " failovers with no verdicts decided in "
                        "between";
                return false;
            }
        } else {
            fruitlessFailovers = 0;
        }
        doneAtLastFailover = done;
        std::string reconnectError;
        if (!reconnect(reconnectError)) {
            error = why + "; " + reconnectError;
            return false;
        }
        ++failovers_;
        resubmits_ += outstanding;
        toSubmit.clear();
        for (size_t i = 0; i < n; ++i)
            if (!decided[i])
                toSubmit.push_back(i);
        outstanding = 0;
        deferSubmits = false;
        busyRounds = 0;
        backoffMs = std::max(1u, options_.busyBackoffInitialMs);
        failure_ = FailureKind::None;
        error.clear();
        return true;
    };

    while (done < n) {
        if (deferSubmits && outstanding == 0) {
            // The whole window bounced with Busy and nothing is in
            // flight, so no frame will arrive until we resubmit: one
            // all-Busy round (a draining, wedged, or quota-starving
            // daemon). Breaker-check, back off jittered, probe again.
            ++busyRounds;
            if (options_.busyBreakerRounds > 0 &&
                busyRounds >= options_.busyBreakerRounds) {
                error = "daemon persistently busy (" +
                        std::to_string(busyRounds) +
                        " all-Busy rounds, " +
                        std::to_string(busyRetries_) +
                        " rejects); giving up on daemon";
                failure_ = FailureKind::Timeout;
                breakerTripped_ = true;
                return false;
            }
            unsigned jittered =
                backoffMs / 2 +
                static_cast<unsigned>(splitmix64(jitterState_) %
                                      (backoffMs / 2 + 1));
            sleepMs(jittered);
            backoffMs = std::max(
                1u,
                std::min(options_.busyBackoffMaxMs, backoffMs * 2));
            deferSubmits = false;
        }
        if (!deferSubmits) {
            bool sendFailed = false;
            while (outstanding < window && !toSubmit.empty()) {
                size_t idx = toSubmit.front();
                toSubmit.pop_front();
                if (!submitOne(idx)) {
                    sendFailed = true;
                    break;
                }
            }
            if (sendFailed) {
                if (!failover(error))
                    return false;
                continue;
            }
        }
        if (outstanding == 0) {
            // Nothing in flight and nothing submittable: only possible
            // on a protocol desync, not in normal operation.
            error = "daemon protocol desync (no jobs in flight)";
            failure_ = FailureKind::WorkerKilled;
            return false;
        }

        std::string payload;
        IoStatus status =
            recvSupervised(payload, options_.verdictTimeoutMs);
        if (status != IoStatus::Ok) {
            failure_ = classify(status);
            std::string why =
                status == IoStatus::Timeout
                    ? "daemon silent past the heartbeat deadline"
                    : "daemon connection lost while waiting for "
                      "a verdict";
            if (!failover(why))
                return false;
            continue;
        }
        wire::FrameType type{};
        std::string body;
        std::string decodeError;
        if (!wire::splitFrame(payload, type, body)) {
            error = "malformed frame from daemon";
            failure_ = FailureKind::WorkerKilled;
            return false;
        }
        if (type == wire::FrameType::JobVerdict) {
            wire::JobVerdictFrame verdict;
            if (!wire::decodeJobVerdict(body, verdict, decodeError)) {
                error = "bad verdict frame: " + decodeError;
                failure_ = FailureKind::WorkerKilled;
                return false;
            }
            size_t idx = static_cast<size_t>(verdict.jobId) - 1;
            if (verdict.jobId == 0 || idx >= n || decided[idx]) {
                error = "verdict for unknown job " +
                        std::to_string(verdict.jobId);
                failure_ = FailureKind::WorkerKilled;
                return false;
            }
            driver::FunctionReport report;
            if (!driver::deserializeFunctionReport(verdict.report,
                                                   report)) {
                error = "undecodable verdict payload for " +
                        functions[idx];
                failure_ = FailureKind::WorkerKilled;
                return false;
            }
            // The daemon strips wall-clock timing (it is not canonical);
            // the client-observed round trip is the honest cost here.
            report.seconds = elapsedSeconds(submitted[idx]);
            report.verdict.stats.solverStats = verdict.stats;
            reports[idx] = std::move(report);
            decided[idx] = true;
            ++done;
            --outstanding;
            // Progress: the daemon is serving us again.
            deferSubmits = false;
            busyRounds = 0;
            backoffMs = std::max(1u, options_.busyBackoffInitialMs);
        } else if (type == wire::FrameType::Busy) {
            wire::BusyFrame busy;
            if (!wire::decodeBusy(body, busy, decodeError) ||
                busy.jobId == 0 ||
                static_cast<size_t>(busy.jobId) - 1 >= n) {
                error = "bad busy frame";
                failure_ = FailureKind::WorkerKilled;
                return false;
            }
            ++busyRetries_;
            --outstanding;
            toSubmit.push_back(static_cast<size_t>(busy.jobId) - 1);
            // Resubmitting immediately would just bounce again (the
            // daemon's caps have not moved); hold further submits
            // until a verdict shows progress, or — once nothing is in
            // flight — the backed-off probe at the top of the loop.
            deferSubmits = true;
        } else if (type == wire::FrameType::Pong) {
            // Heartbeat answer: liveness already noted by the receive
            // itself (recvSupervised's idle clock restarted).
            continue;
        } else if (type == wire::FrameType::Error) {
            std::string message;
            error = wire::decodeError(body, message)
                        ? "daemon error: " + message
                        : "daemon error";
            failure_ = FailureKind::WorkerKilled;
            return false;
        } else {
            error = "unexpected frame from daemon: " +
                    std::string(wire::frameTypeName(type));
            failure_ = FailureKind::WorkerKilled;
            return false;
        }
    }
    return true;
}

bool
DaemonClient::requestShutdown(std::string &error)
{
    if (!connected()) {
        error = "not connected";
        return false;
    }
    if (!channel_.sendFrame(wire::encodeShutdown())) {
        error = "failed to send shutdown";
        return false;
    }
    return true;
}

bool
DaemonClient::queryStatus(wire::JobStatusFrame &out, std::string &error)
{
    if (!connected()) {
        error = "not connected";
        return false;
    }
    if (!channel_.sendFrame(wire::encodeJobStatus(wire::JobStatusFrame{}))) {
        error = "failed to send status probe";
        return false;
    }
    std::string payload;
    IoStatus status =
        channel_.recvFrame(payload, options_.handshakeTimeoutMs);
    if (status != IoStatus::Ok) {
        error = "no status reply";
        return false;
    }
    wire::FrameType type{};
    std::string body;
    std::string decodeError;
    if (!wire::splitFrame(payload, type, body) ||
        type != wire::FrameType::JobStatus ||
        !wire::decodeJobStatus(body, out, decodeError)) {
        error = "bad status reply";
        return false;
    }
    return true;
}

} // namespace keq::service
