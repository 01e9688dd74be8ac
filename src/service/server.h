#ifndef KEQ_SERVICE_SERVER_H
#define KEQ_SERVICE_SERVER_H

/**
 * @file
 * The validation daemon core (keqd without the CLI).
 *
 * One Server owns every warm resource the batch pipeline pays for on
 * each invocation:
 *
 *  - a shared smt::QueryCache wired to the persistent VerdictStore
 *    (loaded at start, appended on every fresh verdict), so verdicts
 *    survive across clients *and* across daemon restarts;
 *  - a pool of warm driver::Pipelines keyed by the job's deterministic
 *    options (jobOptionsKey) — Z3 contexts and sandbox worker pools
 *    persist across jobs instead of cold-starting;
 *  - a support::ThreadPool executing jobs picked from the per-client
 *    round-robin FairQueue, so no client's backlog starves another;
 *  - a bounded parsed-module cache, since a client submits one job per
 *    function of the same module text.
 *
 * Threading model: one accept thread on the Unix socket, one reader
 * thread per session, N pool workers. Sessions push admitted jobs into
 * the FairQueue and submit one "run one job" task per push; workers
 * pop *fairly* (the popped job need not be the pushed one). Verdicts
 * go back through the owning session's write mutex. Shutdown cancels
 * in-flight checks via the shared cancellation token, so stop() is
 * prompt even mid-solve.
 */

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "src/driver/pipeline.h"
#include "src/service/endpoint.h"
#include "src/service/fair_queue.h"
#include "src/service/session.h"
#include "src/service/socket.h"
#include "src/service/verdict_store.h"
#include "src/support/cancellation.h"
#include "src/support/journal.h"
#include "src/support/thread_pool.h"

namespace keq::service {

struct ServerOptions
{
    /** The Unix socket to serve (keqd --socket). */
    Endpoint listen;
    /** Pool worker threads; 0 = one per hardware thread. */
    unsigned jobs = 0;
    /** Admission cap: queued+running jobs per client before Busy. */
    unsigned maxInFlightPerClient = 32;
    /** Verdict-store journal; empty = no cross-restart persistence. */
    std::string verdictJournalPath;
    support::FsyncPolicy journalFsync = support::FsyncPolicy::Off;
    /** Verdict-store byte cap (LRU eviction); 0 = unbounded. */
    uint64_t verdictStoreMaxBytes = 0;
    /** Store auto-compaction garbage-ratio threshold (<=0 disables). */
    double storeCompactGarbageRatio = 0.5;
    /** Minimum journal records before auto-compaction bothers. */
    uint64_t storeCompactMinRecords = 1024;
    /**
     * Trust-but-verify sample of warm (journal-preloaded) verdict
     * hits: each sampled hit is independently re-checked before being
     * served, and a contradiction quarantines the entry (tombstoned in
     * the journal) and re-solves fresh. 0 = off, 1 = audit every
     * unaudited hit once.
     */
    double auditRate = 0.0;
    uint64_t auditSeed = 0;
    /**
     * Per-job wall deadline in ms, counted from admission. Time spent
     * queued eats the budget; the remainder caps GuardedSolver's
     * watchdog, so a slow client cannot pin a worker indefinitely.
     * 0 = none.
     */
    unsigned jobDeadlineMs = 0;
    /** Max *queued* jobs per client before Busy (0 = no extra cap). */
    unsigned maxQueuedPerClient = 0;
    /**
     * Token-bucket admission rate: sustained submits/sec per client
     * (0 = unlimited). Bursts up to clientBurst are admitted at full
     * speed; beyond that, submits get typed Busy replies.
     */
    double clientRatePerSec = 0.0;
    unsigned clientBurst = 64;
    /** Shared query-cache budget (same semantics as keqc). */
    size_t cacheMemoryMb = 512;
    /** Handshake deadline; a silent connector is dropped after this. */
    unsigned handshakeTimeoutMs = 5000;
    /** Sandboxed solving (shared warm worker pool across clients). */
    bool sandbox = false;
    unsigned sandboxWorkers = 0;
    unsigned workerMemoryMb = 0;
    std::string workerPath;
};

struct ServerStats
{
    uint64_t accepted = 0;
    uint64_t helloRejects = 0;
    uint64_t submitted = 0;
    uint64_t completed = 0;
    uint64_t busyRejects = 0;
    uint64_t droppedJobs = 0;
    uint64_t quotaRejects = 0;  ///< Busy replies from quota/queue caps
    uint64_t expiredJobs = 0;   ///< deadlines that expired in queue
    uint64_t auditMismatches = 0; ///< quarantined + re-solved verdicts
    /**
     * Always 0: the daemon has no completed-job ledger to serve
     * resubmits from. The field stays only because perfbench's
     * keqd-warm workload reads it for `service.dedup_hits`; the next
     * benchmark change (ROADMAP item 5) should drop both.
     */
    uint64_t dedupHits = 0;
};

class Server
{
  public:
    explicit Server(ServerOptions options);
    ~Server();

    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    /**
     * Opens the verdict store, binds the socket, starts the pool and
     * accept thread. False with @p error on any failure (daemon
     * already running on the path, unreadable journal, ...).
     */
    bool start(std::string &error);

    /** Asks the daemon to stop (Shutdown frame, SIGTERM). Unblocks
     *  wait(); actual teardown happens in stop(). */
    void requestShutdown();

    /**
     * Graceful drain (SIGTERM): stop accepting connections and new
     * submissions (clients get Busy and degrade to local solving),
     * finish every admitted job, then flush the journal. Poll
     * drained() to learn when teardown via stop() is lossless.
     * Idempotent.
     */
    void beginDrain();
    bool draining() const { return draining_.load(); }
    /** True once every admitted job has executed and replied. */
    bool drained() const;

    /**
     * SIGHUP maintenance: integrity-scrub the verdict store and
     * compact its journal. Safe while serving (store operations
     * serialize internally).
     */
    void scrubAndCompactStore();

    /** Blocks until requestShutdown is called. */
    void wait();

    /** Poll form of wait() — keqd's signal loop checks this. */
    bool shutdownRequested() const;

    /**
     * Full teardown: stops accepting, unblocks and joins sessions,
     * cancels in-flight checks, drains the pool, syncs the journal.
     * Idempotent.
     */
    void stop();

    bool stopping() const { return stopping_.load(); }

    /** Daemon-wide counters for a JobStatus reply. */
    smt::wire::JobStatusFrame statusFrame() const;

    ServerStats stats() const;
    VerdictStore &store() { return store_; }
    const ServerOptions &options() const { return options_; }

  private:
    friend class Session;

    void acceptLoop();
    /** Pool task: pop one job fairly and execute it. */
    void runOneJob();
    void executeJob(const JobWork &work);
    driver::FunctionReport validateJob(const JobWork &work,
                                       unsigned deadlineMsCap);
    driver::Pipeline &pipelineFor(const smt::wire::JobOptionsFrame &o);
    /** The parsed module for @p text (null + @p error when rejected). */
    std::shared_ptr<const llvmir::Module>
    moduleFor(const std::string &text, std::string &error);
    std::shared_ptr<Session> sessionFor(uint64_t clientId);

    // Session-facing hooks (called from reader threads).
    void admitJob(JobWork work);
    size_t dropClientJobs(uint64_t clientId);

    ServerOptions options_;
    VerdictStore store_;
    std::shared_ptr<smt::QueryCache> cache_;
    support::CancellationToken cancel_;
    UnixListener listener_;
    std::unique_ptr<support::ThreadPool> pool_;
    FairQueue queue_;
    std::thread acceptThread_;
    std::atomic<bool> stopping_{false};
    std::atomic<bool> draining_{false};
    bool started_ = false;
    bool stopped_ = false;

    mutable std::mutex sessionsMutex_;
    std::vector<std::shared_ptr<Session>> sessions_;
    uint64_t nextClientId_ = 1;

    std::mutex pipelinesMutex_;
    std::unordered_map<std::string, std::unique_ptr<driver::Pipeline>>
        pipelines_;

    std::mutex modulesMutex_;
    std::unordered_map<std::string, std::shared_ptr<const llvmir::Module>>
        modules_;

    mutable std::mutex shutdownMutex_;
    std::condition_variable shutdownCv_;
    bool shutdownRequested_ = false;

    std::atomic<uint64_t> accepted_{0};
    std::atomic<uint64_t> helloRejects_{0};
    std::atomic<uint64_t> submitted_{0};
    std::atomic<uint64_t> completed_{0};
    std::atomic<uint64_t> busyRejects_{0};
    std::atomic<uint64_t> droppedJobs_{0};
    std::atomic<uint64_t> running_{0};
    std::atomic<uint64_t> quotaRejects_{0};
    std::atomic<uint64_t> expiredJobs_{0};
    std::atomic<uint64_t> auditMismatches_{0};
};

} // namespace keq::service

#endif // KEQ_SERVICE_SERVER_H
