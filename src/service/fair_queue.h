#ifndef KEQ_SERVICE_FAIR_QUEUE_H
#define KEQ_SERVICE_FAIR_QUEUE_H

/**
 * @file
 * Per-client round-robin fair queue for validation jobs.
 *
 * The daemon serves many concurrent clients from one
 * support::ThreadPool. A single FIFO would let one client's 500-function
 * module starve everyone behind it; this queue keeps one FIFO *per
 * client* and rotates between clients on every pop, so a client
 * submitting one function waits for at most (#clients - 1) jobs, never
 * for another client's whole backlog.
 *
 * The scheduling contract, pinned by tests/service/fair_queue_test.cc:
 *  - jobs of one client pop in submission order (per-client FIFO);
 *  - successive pops cycle through the distinct clients that have
 *    queued jobs (round-robin), in first-arrival order;
 *  - dropClient removes a disconnected client's *queued* jobs (running
 *    ones finish and their replies are dropped by the session layer).
 *
 * Admission control (the bounded in-flight cap and the Busy reply)
 * lives in the Session, not here: by the time a job is pushed it has
 * been admitted.
 */

#include <chrono>
#include <cstdint>
#include <deque>
#include <list>
#include <mutex>
#include <string>
#include <unordered_map>

#include "src/smt/wire.h"

namespace keq::service {

/** One admitted, not-yet-executed validation job. */
struct JobWork
{
    uint64_t clientId = 0; ///< session identity (not the wire jobId)
    uint64_t jobId = 0;    ///< client-chosen id echoed on the verdict
    std::string function;
    std::string moduleText;
    smt::wire::JobOptionsFrame options;
    /** Admission time; the per-job wall deadline counts from here, so
     *  queueing delay eats the same budget solving does. */
    std::chrono::steady_clock::time_point admittedAt{};
};

class FairQueue
{
  public:
    /** Enqueues @p job on its client's FIFO. Thread safe. */
    void push(JobWork job);

    /**
     * Pops the next job round-robin across clients. Returns false when
     * the queue is empty (never blocks — the thread pool only calls
     * this after a push, so "empty" means the job was dropped by
     * dropClient in between).
     */
    bool pop(JobWork &out);

    /** Discards every queued job of @p clientId; returns the count. */
    size_t dropClient(uint64_t clientId);

    size_t queued() const;
    size_t queuedFor(uint64_t clientId) const;

  private:
    mutable std::mutex mutex_;
    /** Clients with at least one queued job, in round-robin order. */
    std::list<uint64_t> order_;
    std::unordered_map<uint64_t, std::deque<JobWork>> queues_;
};

} // namespace keq::service

#endif // KEQ_SERVICE_FAIR_QUEUE_H
