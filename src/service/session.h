#ifndef KEQ_SERVICE_SESSION_H
#define KEQ_SERVICE_SESSION_H

/**
 * @file
 * One connected client of the validation daemon.
 *
 * A Session owns the client's WireChannel and reader thread. Its
 * lifecycle:
 *
 *  1. handshake — the first frame must be a well-formed ClientHello
 *     with the service magic and the daemon's protocol version
 *     (kMinServiceProtocolVersion..kProtocolVersion, one version);
 *     anything else gets a typed HelloReject (carrying the supported
 *     version) and the connection is closed.
 *     Negotiation failures are *answers*, never undefined decode
 *     behavior.
 *  2. frame loop — SubmitJob frames first consult the server's
 *     completed-job ledger (a fingerprint resubmitted after a
 *     client failover is answered immediately: no admission, no quota
 *     charge, no solve), then pass admission control (the per-client
 *     in-flight cap; over-cap jobs get a typed Busy reply, the daemon
 *     never queues unboundedly per client) and land in the server's
 *     fair queue; JobStatus is answered inline; Ping gets a Pong from
 *     the reader thread (the client's liveness probe must not queue
 *     behind solves); Shutdown asks the server to stop.
 *  3. teardown — on EOF/error the session drops its queued jobs
 *     (running ones finish; their verdicts are discarded here).
 *
 * Verdicts are sent by pool worker threads while the reader thread may
 * be replying to a status probe, so every send goes through one write
 * mutex — frames never interleave on the socket.
 */

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>

#include "src/service/socket.h"
#include "src/smt/wire.h"

namespace keq::service {

class Server;

class Session
{
  public:
    Session(Server &server, uint64_t clientId, WireChannel channel);
    ~Session();

    Session(const Session &) = delete;
    Session &operator=(const Session &) = delete;

    /** Spawns the reader thread. */
    void start();

    /** Joins the reader thread (idempotent). */
    void join();

    /** True once the reader thread has finished. */
    bool done() const { return done_.load(); }

    uint64_t clientId() const { return clientId_; }

    /**
     * Sends one finished job's verdict (worker threads). Decrements
     * the in-flight count even when the client is already gone.
     */
    bool sendVerdict(const smt::wire::JobVerdictFrame &frame);

    /** A queued job was dropped unexecuted (daemon stopping). */
    void noteJobDropped();

    /** Unblocks the reader immediately (server shutdown). */
    void shutdownChannel();

  private:
    void run();
    bool handshake();
    void handleSubmit(const std::string &body);
    void handleStatus();
    bool sendLocked(const std::string &frame);
    void sendBusy(uint64_t jobId);
    /** Token-bucket check (clientRatePerSec/clientBurst); reader-thread
     *  only, so the bucket needs no lock. */
    bool takeRateToken();

    Server &server_;
    uint64_t clientId_;
    WireChannel channel_;
    std::mutex writeMutex_;
    std::thread thread_;
    std::atomic<unsigned> inFlight_{0};
    std::atomic<bool> done_{false};
    double rateTokens_ = 0.0;
    std::chrono::steady_clock::time_point rateRefillAt_{};
};

} // namespace keq::service

#endif // KEQ_SERVICE_SESSION_H
