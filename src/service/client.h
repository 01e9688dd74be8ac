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
 * Degradation contract (mirrors the sandbox pattern): any transport
 * failure — send failure, EOF, socket error, a verdict wait past its
 * deadline — is classified into a FailureKind and reported via
 * failure(); the caller (keqc) warns once and validates the remaining
 * functions locally, keeping every verdict already decided. A daemon
 * dying mid-job never hangs the client: on a Unix socket a dead
 * daemon is an immediate EOF, and every receive carries a deadline.
 */

#include <cstdint>
#include <string>
#include <vector>

#include "src/driver/pipeline.h"
#include "src/service/endpoint.h"
#include "src/service/socket.h"
#include "src/smt/wire.h"
#include "src/support/failure.h"

namespace keq::service {

struct DaemonClientOptions
{
    /**
     * The daemon's socket (keqc --daemon). One endpoint; the plural
     * name is kept because perfbench's keqd-warm workload assigns it.
     */
    Endpoint endpoints;
    std::string clientName = "keqc";
    unsigned connectTimeoutMs = 2000;
    unsigned handshakeTimeoutMs = 5000;
    /**
     * Ceiling on one verdict wait. Generous by design — it only has
     * to beat a wedged daemon, not a slow solve (the daemon enforces
     * real solver budgets job-side; a dead one is an immediate EOF).
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
};

class DaemonClient
{
  public:
    explicit DaemonClient(DaemonClientOptions options);

    /**
     * Connects and negotiates (ClientHello/ServerHello). False with
     * @p error on an absent socket, a HelloReject (version skew; the
     * daemon's supported version lands in the message), or a
     * handshake timeout.
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
     * and the caller finishes the rest locally.
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

    DaemonClientOptions options_;
    WireChannel channel_;
    smt::wire::ServerHelloFrame serverHello_;
    FailureKind failure_ = FailureKind::None;
    uint64_t busyRetries_ = 0;
    bool breakerTripped_ = false;
    uint64_t jitterState_ = 0; ///< cheap PRNG for backoff jitter
};

} // namespace keq::service

#endif // KEQ_SERVICE_CLIENT_H
