#include "src/service/server.h"

#include <algorithm>
#include <chrono>
#include <cstdio>

#include <unistd.h>

#include "src/driver/checkpoint.h"
#include "src/llvmir/parser.h"
#include "src/llvmir/verifier.h"
#include "src/service/job_options.h"
#include "src/support/diagnostics.h"
#include "src/support/failure.h"

namespace keq::service {

namespace wire = smt::wire;

namespace {

/** Accept-loop tick: bounds shutdown latency of the accept thread. */
constexpr unsigned kAcceptTickMs = 200;

/** Parsed-module cache cap; one clear beats LRU bookkeeping here. */
constexpr size_t kMaxCachedModules = 32;

} // namespace

Server::Server(ServerOptions options)
    : options_(std::move(options)),
      store_({options_.verdictJournalPath, options_.journalFsync}),
      cancel_(support::CancellationToken::create())
{}

Server::~Server() { stop(); }

bool
Server::start(std::string &error)
{
    KEQ_ASSERT(!started_, "Server::start called twice");
    cache_ = std::make_shared<smt::QueryCache>(
        smt::QueryCache::kDefaultMaxEntriesPerShard,
        options_.cacheMemoryMb << 20);
    if (!store_.open(*cache_, error))
        return false;
    if (!listener_.listenOn(options_.listen.path, error))
        return false;
    pool_ = std::make_unique<support::ThreadPool>(options_.jobs);
    acceptThread_ = std::thread([this] { acceptLoop(); });
    started_ = true;
    return true;
}

void
Server::acceptLoop()
{
    while (!stopping_.load()) {
        int fd = listener_.acceptClient(kAcceptTickMs);
        if (fd < 0)
            continue;
        if (draining_.load()) {
            // A draining daemon takes no new clients: close without a
            // handshake, so the connector fails fast and degrades to
            // local solving.
            ::close(fd);
            continue;
        }
        ++accepted_;
        auto session = std::make_shared<Session>(*this, nextClientId_++,
                                                 WireChannel(fd));
        {
            std::lock_guard<std::mutex> lock(sessionsMutex_);
            // Reap finished sessions so a long-lived daemon's session
            // list tracks live clients, not connection history.
            std::erase_if(sessions_,
                          [](const std::shared_ptr<Session> &s) {
                              return s->done();
                          });
            sessions_.push_back(session);
        }
        session->start();
    }
}

void
Server::admitJob(JobWork work)
{
    ++submitted_;
    queue_.push(std::move(work));
    pool_->submit([this] { runOneJob(); });
}

size_t
Server::dropClientJobs(uint64_t clientId)
{
    size_t dropped = queue_.dropClient(clientId);
    droppedJobs_ += dropped;
    return dropped;
}

void
Server::runOneJob()
{
    JobWork work;
    // One pool task is submitted per push, but the pop is *fair* — the
    // job executed here may belong to any client. An empty pop means
    // the pushed job was dropped by a disconnect in between.
    if (!queue_.pop(work))
        return;
    ++running_;
    try {
        executeJob(work);
    } catch (...) {
        // A job must never take down a pool worker; the failure is
        // already classified inside the report where possible.
    }
    --running_;
}

void
Server::executeJob(const JobWork &work)
{
    std::shared_ptr<Session> session = sessionFor(work.clientId);
    if (stopping_.load()) {
        ++droppedJobs_;
        if (session != nullptr)
            session->noteJobDropped();
        return;
    }
    if (session == nullptr) {
        // The client disconnected while this job sat in the queue; the
        // session teardown raced our pop. Nobody is listening — don't
        // burn solver time computing an unsendable verdict.
        ++droppedJobs_;
        return;
    }

    // Per-job wall deadline, counted from admission: time spent queued
    // eats the budget, and the remainder caps the solver watchdog. A
    // job whose budget expired entirely in the queue reports Timeout
    // without touching a solver.
    unsigned deadlineCap = 0;
    if (options_.jobDeadlineMs > 0) {
        auto waited =
            std::chrono::duration_cast<std::chrono::milliseconds>(
                std::chrono::steady_clock::now() - work.admittedAt)
                .count();
        if (waited >= static_cast<long long>(options_.jobDeadlineMs)) {
            ++expiredJobs_;
            ++completed_;
            driver::FunctionReport expired;
            expired.function = work.function;
            expired.outcome = driver::Outcome::Timeout;
            expired.verdict.kind = checker::VerdictKind::Timeout;
            expired.detail = "daemon: job deadline (" +
                             std::to_string(options_.jobDeadlineMs) +
                             " ms) expired in queue";
            wire::JobVerdictFrame frame;
            frame.jobId = work.jobId;
            frame.report = driver::serializeFunctionReport(expired);
            frame.stats = expired.verdict.stats.solverStats;
            if (!session->sendVerdict(frame))
                dropClientJobs(work.clientId);
            return;
        }
        deadlineCap = options_.jobDeadlineMs -
                      static_cast<unsigned>(waited);
    }

    driver::FunctionReport report = validateJob(work, deadlineCap);
    if (stopping_.load() ||
        report.verdict.failure == FailureKind::Cancelled) {
        // Shutdown interrupted this solve. A Cancelled verdict is not
        // definitive — sending it would make keqc keep it as decided.
        // Drop it; the disconnect the client is about to observe sends
        // the function to keqc's local fallback, which validates it.
        ++droppedJobs_;
        session->noteJobDropped();
        return;
    }
    ++completed_;
    wire::JobVerdictFrame frame;
    frame.jobId = work.jobId;
    frame.report = driver::serializeFunctionReport(report);
    frame.stats = report.verdict.stats.solverStats;
    if (!session->sendVerdict(frame)) {
        // The socket died under us: the client's remaining backlog is
        // unsendable too. Drop it now instead of solving toward a dead
        // endpoint (the reader thread notices EOF and tears down).
        dropClientJobs(work.clientId);
    }
}

driver::FunctionReport
Server::validateJob(const JobWork &work, unsigned deadlineMsCap)
{
    driver::FunctionReport report;
    report.function = work.function;
    report.outcome = driver::Outcome::Unsupported;
    report.verdict.kind = checker::VerdictKind::NotValidated;

    std::string error;
    std::shared_ptr<const llvmir::Module> module =
        moduleFor(work.moduleText, error);
    if (module == nullptr) {
        // Clients parse before submitting, so this is version skew or
        // a foreign client — classified, not fatal.
        report.detail = "daemon: module rejected: " + error;
        return report;
    }
    const llvmir::Function *fn = nullptr;
    for (const llvmir::Function &candidate : module->functions) {
        if (!candidate.isDeclaration() &&
            candidate.name == work.function) {
            fn = &candidate;
            break;
        }
    }
    if (fn == nullptr) {
        report.detail =
            "daemon: no defined function " + work.function;
        return report;
    }
    try {
        return pipelineFor(work.options)
            .validateFunction(*module, *fn, deadlineMsCap);
    } catch (const support::Error &err) {
        report.outcome = driver::Outcome::Other;
        report.detail = std::string("daemon: ") + err.what();
        return report;
    }
}

driver::Pipeline &
Server::pipelineFor(const wire::JobOptionsFrame &frameOptions)
{
    std::string key = jobOptionsKey(frameOptions);
    std::lock_guard<std::mutex> lock(pipelinesMutex_);
    auto it = pipelines_.find(key);
    if (it != pipelines_.end())
        return *it->second;

    driver::PipelineOptions options = decodeJobOptions(frameOptions);
    options.checker.cancel = cancel_;
    driver::ExecutionOptions exec;
    exec.jobs = 1; // concurrency comes from the daemon pool
    exec.externalCache = cache_;
    exec.cancel = cancel_;
    exec.sandbox = options_.sandbox;
    exec.sandboxWorkers = options_.sandboxWorkers;
    exec.workerMemoryMb = options_.workerMemoryMb;
    exec.workerPath = options_.workerPath;
    if (options_.auditRate > 0.0) {
        exec.auditRate = options_.auditRate;
        exec.auditSeed = options_.auditSeed;
        exec.onAuditMismatch = [this](const std::string &key,
                                      smt::SatResult stored,
                                      smt::SatResult recheck) {
            // A journal-preloaded verdict contradicted its re-check:
            // tombstone it (so restarts never resurrect it) and count
            // it; the caching layer already fell back to fresh solving
            // for this query, so the served verdict stays identical to
            // a daemonless run.
            store_.quarantine(key);
            ++auditMismatches_;
            std::fprintf(stderr,
                         "keqd: %s: stored=%s recheck=%s key=%.16s...\n",
                         failureKindName(FailureKind::AuditMismatch),
                         smt::satResultName(stored),
                         smt::satResultName(recheck), key.c_str());
        };
    }
    auto pipeline =
        std::make_unique<driver::Pipeline>(options, std::move(exec));
    if (options_.sandbox) {
        // Resolve the supervisor eagerly: lazy creation is not safe
        // under the pool's concurrent validateFunction calls, and the
        // whole point of the daemon is a warm worker pool anyway.
        unsigned workers = options_.sandboxWorkers != 0
                               ? options_.sandboxWorkers
                               : std::max(1u, pool_->threadCount());
        pipeline->sandboxSupervisor(workers);
    }
    auto [slot, inserted] =
        pipelines_.emplace(key, std::move(pipeline));
    return *slot->second;
}

std::shared_ptr<const llvmir::Module>
Server::moduleFor(const std::string &text, std::string &error)
{
    {
        std::lock_guard<std::mutex> lock(modulesMutex_);
        auto it = modules_.find(text);
        if (it != modules_.end())
            return it->second;
    }
    // Parse outside the lock (a big module takes a while); a racing
    // duplicate parse is wasted work, not a correctness problem.
    std::shared_ptr<const llvmir::Module> parsed;
    try {
        auto module = std::make_shared<llvmir::Module>(
            llvmir::parseModule(text));
        llvmir::verifyModuleOrThrow(*module);
        parsed = std::move(module);
    } catch (const support::Error &err) {
        error = err.what();
        return nullptr;
    }
    std::lock_guard<std::mutex> lock(modulesMutex_);
    if (modules_.size() >= kMaxCachedModules)
        modules_.clear();
    auto [it, inserted] = modules_.emplace(text, std::move(parsed));
    return it->second;
}

std::shared_ptr<Session>
Server::sessionFor(uint64_t clientId)
{
    std::lock_guard<std::mutex> lock(sessionsMutex_);
    for (const std::shared_ptr<Session> &session : sessions_) {
        if (session->clientId() == clientId && !session->done())
            return session;
    }
    return nullptr;
}

void
Server::beginDrain()
{
    bool expected = false;
    if (!draining_.compare_exchange_strong(expected, true))
        return;
    // From here: acceptLoop closes new connections pre-handshake and
    // Session::handleSubmit answers Busy, so the admitted-job set is
    // frozen. Already-queued and in-flight jobs run to completion and
    // their verdicts flow back normally; drained() turns true once the
    // last one has replied.
}

bool
Server::drained() const
{
    if (!draining_.load())
        return false;
    return queue_.queued() == 0 && running_.load() == 0;
}

void
Server::compactStore()
{
    size_t kept = store_.compact();
    std::fprintf(stderr,
                 "keqd: verdict journal compacted: %llu records, "
                 "generation %llu\n",
                 static_cast<unsigned long long>(kept),
                 static_cast<unsigned long long>(
                     store_.stats().generation));
}

void
Server::requestShutdown()
{
    std::lock_guard<std::mutex> lock(shutdownMutex_);
    shutdownRequested_ = true;
    shutdownCv_.notify_all();
}

void
Server::wait()
{
    std::unique_lock<std::mutex> lock(shutdownMutex_);
    shutdownCv_.wait(lock, [this] { return shutdownRequested_; });
}

bool
Server::shutdownRequested() const
{
    std::lock_guard<std::mutex> lock(shutdownMutex_);
    return shutdownRequested_;
}

void
Server::stop()
{
    if (!started_ || stopped_)
        return;
    stopped_ = true;
    stopping_.store(true);
    // Interrupt in-flight checks: solver watchdogs and checker budget
    // polls observe the token, so even a mid-solve job winds down in
    // bounded time (its verdict is dropped, never journaled —
    // Cancelled verdicts are not definitive).
    cancel_.cancel();
    if (acceptThread_.joinable())
        acceptThread_.join();
    listener_.close();

    std::vector<std::shared_ptr<Session>> sessions;
    {
        std::lock_guard<std::mutex> lock(sessionsMutex_);
        sessions = sessions_;
    }
    for (const std::shared_ptr<Session> &session : sessions)
        session->shutdownChannel();
    for (const std::shared_ptr<Session> &session : sessions)
        session->join();

    // Drain the pool: remaining tasks see stopping_ and drop their
    // jobs. The pool destructor joins the workers.
    if (pool_ != nullptr) {
        try {
            pool_->wait();
        } catch (...) {
            // Task exceptions were already absorbed per job.
        }
        pool_.reset();
    }
    requestShutdown(); // wake any wait()er even on external stop paths

    {
        std::lock_guard<std::mutex> lock(sessionsMutex_);
        sessions_.clear();
    }
    pipelines_.clear();
    modules_.clear();
    // Every verdict journaled during this run is on disk before the
    // daemon exits, whatever the configured fsync cadence was.
    store_.sync();
}

smt::wire::JobStatusFrame
Server::statusFrame(uint64_t askingClientId) const
{
    wire::JobStatusFrame frame;
    frame.queuedJobs = queue_.queued();
    frame.runningJobs = running_.load();
    frame.completedJobs = completed_.load();
    frame.busyRejects = busyRejects_.load();
    smt::CacheStats cache = cache_->stats();
    frame.storeEntries = cache.entries;
    frame.storeBytes = cache.bytes;
    frame.storeEvictions = cache.evictions;
    frame.storeQuarantined = store_.stats().quarantined;
    frame.auditMismatches = auditMismatches_.load();
    frame.quotaRejects = quotaRejects_.load();
    frame.draining = draining_.load() ? 1 : 0;
    uint64_t active = 0;
    {
        std::lock_guard<std::mutex> lock(sessionsMutex_);
        for (const std::shared_ptr<Session> &session : sessions_) {
            if (!session->done() &&
                session->clientId() != askingClientId)
                ++active;
        }
    }
    frame.activeClients = active;
    return frame;
}

ServerStats
Server::stats() const
{
    ServerStats stats;
    stats.accepted = accepted_.load();
    stats.helloRejects = helloRejects_.load();
    stats.submitted = submitted_.load();
    stats.completed = completed_.load();
    stats.busyRejects = busyRejects_.load();
    stats.droppedJobs = droppedJobs_.load();
    stats.quotaRejects = quotaRejects_.load();
    stats.expiredJobs = expiredJobs_.load();
    stats.auditMismatches = auditMismatches_.load();
    return stats;
}

} // namespace keq::service
