#ifndef KEQ_SERVICE_CLIENT_H
#define KEQ_SERVICE_CLIENT_H

/**
 * @file
 * Thin client of the validation daemon (the keqc --daemon path).
 *
 * The client ships the module text plus one SubmitJob per function and
 * collects JobVerdict frames, windowed so several jobs are in flight
 * at once (the daemon's fair queue interleaves clients; the window
 * just hides the round-trip). Busy replies — the daemon's typed
 * admission backpressure — put the job back on the resubmit list; the
 * client drains a verdict first, so the protocol can never livelock.
 *
 * Failover (wire v5): the client holds an ordered endpoint list
 * (keqc --daemon=unix:A,tcp:B:P,...). A mid-run transport failure —
 * send failure, EOF, socket error, or a heartbeat-detected silent TCP
 * peer — triggers the failover state machine: close, reconnect (cycling
 * endpoints with jittered capped backoff), rebuild the submit queue
 * from every still-undecided function, and resume. Each SubmitJob
 * carries a deterministic fingerprint, so a job the dead daemon already
 * completed is answered from its ledger on resubmit — idempotent, never
 * double-charged against quotas.
 *
 * Degradation contract (mirrors the sandbox pattern): when failover is
 * exhausted too, the failure is classified into a FailureKind and
 * reported via failure(); the caller (keqc) warns once and validates
 * the remaining functions locally, keeping every verdict already
 * decided. A daemon dying mid-job must never hang the client — every
 * receive carries a deadline, and on TCP an idle connection is
 * heartbeat-probed so a silent peer becomes a *typed* Timeout, not a
 * ten-minute stall.
 */

#include <cstdint>
#include <string>
#include <vector>

#include "src/driver/pipeline.h"
#include "src/service/socket.h"
#include "src/smt/wire.h"
#include "src/support/failure.h"

namespace keq::service {

struct DaemonClientOptions
{
    /** Legacy single unix socket; used when endpoints is empty. */
    std::string socketPath;
    /**
     * Failover list, tried in order on connect; on a mid-run transport
     * failure the client cycles to the *next* endpoint first (the one
     * that just died is the last resort of each reconnect round).
     */
    std::vector<Endpoint> endpoints;
    std::string clientName = "keqc";
    unsigned connectTimeoutMs = 2000;
    unsigned handshakeTimeoutMs = 5000;
    /**
     * Ceiling on one verdict wait. Generous by design — it only has
     * to beat a *dead* daemon, not a slow solve (the daemon enforces
     * real solver budgets job-side).
     */
    unsigned verdictTimeoutMs = 600000;
    /** Max unacknowledged SubmitJobs (<= daemon's in-flight cap). */
    unsigned submitWindow = 8;
    /**
     * Busy backoff: after a Busy the client stops resubmitting until a
     * verdict shows progress; once *nothing* is in flight (the whole
     * window bounced), it sleeps a jittered interval before probing
     * again and doubles it (capped) on each further all-Busy round, so
     * a herd of keqc processes does not hammer a saturated daemon in
     * lockstep. Any verdict resets the backoff to the initial value.
     */
    unsigned busyBackoffInitialMs = 10;
    unsigned busyBackoffMaxMs = 2000;
    /**
     * Circuit breaker: after this many *consecutive* all-Busy rounds
     * (every submit bounced, nothing in flight, no verdict in between
     * — a draining, wedged, or quota-starving daemon), the client
     * stops retrying, reports a Timeout-classified transport failure,
     * and the caller degrades to local solving (keeping verdicts
     * already decided). 0 disables.
     */
    unsigned busyBreakerRounds = 10;
    /**
     * Connection heartbeat: after this much receive silence the
     * client sends a Ping; a peer that answers nothing for
     * heartbeatTimeoutMs more is declared dead — the typed Timeout
     * that makes a silent TCP peer (power loss, cable pull: no FIN, no
     * RST) indistinguishable from a killed daemon instead of a
     * verdictTimeoutMs stall. 0 disables probing.
     */
    unsigned heartbeatIntervalMs = 10000;
    unsigned heartbeatTimeoutMs = 30000;
    /**
     * Failover budget: passes over the endpoint list per reconnect
     * attempt, with a jittered doubling sleep between passes (same
     * splitmix64 jitter the Busy backoff uses, so a herd of failing-
     * over clients does not stampede the surviving daemon).
     */
    unsigned reconnectRounds = 3;
    unsigned reconnectBackoffInitialMs = 50;
    unsigned reconnectBackoffMaxMs = 2000;
};

class DaemonClient
{
  public:
    explicit DaemonClient(DaemonClientOptions options);

    /**
     * Connects and negotiates (ClientHello/ServerHello), trying each
     * configured endpoint in order until one answers. False with
     * @p error (every endpoint's failure, aggregated) when none does:
     * absent socket, HelloReject (version skew; the daemon's supported
     * version lands in the message), or a handshake timeout.
     */
    bool connect(std::string &error);

    bool connected() const { return channel_.valid(); }

    /**
     * Submits one job per entry of @p functions (names as in
     * llvmir::Function::name, e.g. "@max") and collects verdicts.
     * @p reports / @p decided are resized to functions.size();
     * decided[i] is true when reports[i] holds the daemon's verdict
     * (stats folded in, seconds = round-trip wall time).
     *
     * @return true when every function was decided. False on a
     * transport failure: decided verdicts are kept, failure() is set,
     * and the caller finishes the rest locally. Mid-run transport
     * deaths fail over across the endpoint list with idempotent
     * resubmission; failovers that decide no verdicts in between are
     * budgeted (one chance per endpoint), so a peer that accepts
     * connections but never answers degrades in bounded time instead
     * of cycling forever.
     */
    bool validateFunctions(const std::string &moduleText,
                           const std::vector<std::string> &functions,
                           const driver::PipelineOptions &options,
                           std::vector<driver::FunctionReport> &reports,
                           std::vector<bool> &decided,
                           std::string &error);

    /** Classification of the last transport failure (None if fine). */
    FailureKind failure() const { return failure_; }

    /** Busy replies absorbed (resubmitted) across validateFunctions. */
    uint64_t busyRetries() const { return busyRetries_; }

    /** True when the last failure was the Busy circuit breaker. */
    bool busyBreakerTripped() const { return breakerTripped_; }

    /** Successful mid-run failovers (reconnects that resumed work). */
    uint64_t failovers() const { return failovers_; }

    /** In-flight jobs resubmitted after a failover (each carries its
     *  fingerprint, so the daemon side dedups ones already done). */
    uint64_t resubmittedJobs() const { return resubmits_; }

    /** Endpoint of the live connection (valid while connected()). */
    const Endpoint &activeEndpoint() const
    {
        return endpoints_[activeIndex_];
    }

    /** Sends a Shutdown frame (keqd --stop). */
    bool requestShutdown(std::string &error);

    /** Round-trips a JobStatus probe (keqd --status). */
    bool queryStatus(smt::wire::JobStatusFrame &out, std::string &error);

    const smt::wire::ServerHelloFrame &serverHello() const
    {
        return serverHello_;
    }

    void close() { channel_.close(); }

  private:
    FailureKind classify(support::IoStatus status) const;
    /** One endpoint: socket connect + hello/ack negotiation. */
    bool connectTo(const Endpoint &endpoint, std::string &error);
    /** Failover reconnect: cycles endpoints with jittered backoff. */
    bool reconnect(std::string &error);
    /**
     * Receive with liveness supervision: polls readability in short
     * ticks (never tearing a partially-arrived frame), Pings an idle
     * connection, and turns a silent peer into IoStatus::Timeout
     * after heartbeatTimeoutMs instead of stalling to the verdict
     * deadline. Pong frames are passed through to the caller.
     */
    support::IoStatus recvSupervised(std::string &payload,
                                     unsigned deadlineMs);

    DaemonClientOptions options_;
    std::vector<Endpoint> endpoints_; ///< normalized failover list
    size_t activeIndex_ = 0;
    WireChannel channel_;
    smt::wire::ServerHelloFrame serverHello_;
    FailureKind failure_ = FailureKind::None;
    uint64_t busyRetries_ = 0;
    uint64_t failovers_ = 0;
    uint64_t resubmits_ = 0;
    bool breakerTripped_ = false;
    uint64_t jitterState_ = 0; ///< cheap PRNG for backoff jitter
};

} // namespace keq::service

#endif // KEQ_SERVICE_CLIENT_H
