#include "src/smt/guarded_solver.h"

#include <algorithm>

#include "src/support/diagnostics.h"

namespace keq::smt {

using Clock = std::chrono::steady_clock;

GuardedSolver::GuardedSolver(TermFactory &factory, Solver &primary,
                             RungFactory fallback,
                             GuardedSolverOptions options)
    : factory_(factory), primary_(primary),
      fallbackFactory_(std::move(fallback)), options_(options)
{}

GuardedSolver::~GuardedSolver()
{
    if (watchdog_.joinable()) {
        {
            std::unique_lock<std::mutex> lock(watchMutex_);
            watchShutdown_ = true;
        }
        watchCv_.notify_all();
        watchdog_.join();
    }
}

void
GuardedSolver::setTimeoutMs(unsigned timeout_ms)
{
    timeoutMs_ = timeout_ms;
    primary_.setTimeoutMs(timeout_ms);
    if (fallback_)
        fallback_->setTimeoutMs(timeout_ms);
}

void
GuardedSolver::setMemoryBudgetMb(unsigned budget_mb)
{
    memoryBudgetMb_ = budget_mb;
    primary_.setMemoryBudgetMb(budget_mb);
    if (fallback_)
        fallback_->setMemoryBudgetMb(budget_mb);
}

void
GuardedSolver::enableModelCapture(bool enabled)
{
    captureModels_ = enabled;
    primary_.enableModelCapture(enabled);
    if (fallback_)
        fallback_->enableModelCapture(enabled);
}

bool
GuardedSolver::lastModel(Assignment *out) const
{
    return lastAnswering_ != nullptr && lastAnswering_->lastModel(out);
}

std::string
GuardedSolver::lastUnknownReason() const
{
    return lastUnknownReason_;
}

FailureKind
GuardedSolver::lastFailureKind() const
{
    return lastFailure_;
}

void
GuardedSolver::interruptQuery()
{
    // Forward to whatever could be solving right now; harmless for an
    // idle rung (a stray interrupt makes at most one future attempt
    // return Unknown, which the guard retries).
    primary_.interruptQuery();
    if (fallback_)
        fallback_->interruptQuery();
}

Solver *
GuardedSolver::rungSolver(unsigned rung)
{
    if (rung == 0)
        return &primary_;
    if (!fallback_) {
        fallback_ = fallbackFactory_();
        KEQ_ASSERT(fallback_ != nullptr,
                   "GuardedSolver: rung factory returned null");
        fallback_->setTimeoutMs(timeoutMs_);
        fallback_->setMemoryBudgetMb(memoryBudgetMb_);
        fallback_->enableModelCapture(captureModels_);
    }
    return fallback_.get();
}

void
GuardedSolver::ensureWatchdog()
{
    if (!watchdog_.joinable())
        watchdog_ = std::thread([this] { watchdogLoop(); });
}

void
GuardedSolver::armWatchdog(Solver *target)
{
    if (options_.deadlineMs == 0 && !options_.cancel.valid())
        return; // nothing to enforce
    ensureWatchdog();
    {
        std::unique_lock<std::mutex> lock(watchMutex_);
        watchTarget_ = target;
        watchHasDeadline_ = options_.deadlineMs > 0;
        if (watchHasDeadline_) {
            watchDeadline_ = Clock::now() + std::chrono::milliseconds(
                                                options_.deadlineMs);
        }
        watchArmed_ = true;
        watchFired_ = false;
        ++watchGeneration_;
    }
    watchCv_.notify_all();
}

bool
GuardedSolver::disarmWatchdog()
{
    if (!watchdog_.joinable())
        return false;
    bool fired;
    {
        std::unique_lock<std::mutex> lock(watchMutex_);
        fired = watchFired_;
        watchArmed_ = false;
        watchFired_ = false;
        ++watchGeneration_;
    }
    watchCv_.notify_all();
    if (fired)
        ++stats_.watchdogInterrupts;
    return fired;
}

void
GuardedSolver::watchdogLoop()
{
    using namespace std::chrono_literals;
    std::unique_lock<std::mutex> lock(watchMutex_);
    for (;;) {
        watchCv_.wait(lock,
                      [this] { return watchShutdown_ || watchArmed_; });
        if (watchShutdown_)
            return;
        uint64_t generation = watchGeneration_;
        while (watchArmed_ && watchGeneration_ == generation &&
               !watchShutdown_) {
            Clock::time_point now = Clock::now();
            bool expired = watchHasDeadline_ && now >= watchDeadline_;
            bool cancelled = options_.cancel.cancelled();
            if (expired || cancelled) {
                watchFired_ = true;
                Solver *target = watchTarget_;
                // Interrupt outside the lock: Z3_interrupt is
                // thread-safe but can take a moment. A lost race with
                // disarm costs at most one spurious Unknown on a later
                // attempt, which the guard absorbs; it can never flip
                // a definite verdict.
                lock.unlock();
                target->interruptQuery();
                lock.lock();
                // Keep re-firing until the attempt returns: an
                // interrupt that lands before the backend has created
                // its Z3 context is a no-op.
                watchCv_.wait_for(lock, 25ms, [&] {
                    return !watchArmed_ ||
                           watchGeneration_ != generation ||
                           watchShutdown_;
                });
            } else {
                Clock::time_point wake = now + 50ms; // cancel poll tick
                if (watchHasDeadline_)
                    wake = std::min(wake, watchDeadline_);
                watchCv_.wait_until(lock, wake, [&] {
                    return !watchArmed_ ||
                           watchGeneration_ != generation ||
                           watchShutdown_;
                });
            }
        }
    }
}

SatResult
GuardedSolver::checkSat(const std::vector<Term> &assertions)
{
    ++stats_.queries;
    lastUnknownReason_.clear();
    lastFailure_ = FailureKind::None;
    lastAnswering_ = nullptr;

    unsigned rungCount = hasFallback() ? 2 : 1;
    for (unsigned rung = 0; rung < rungCount; ++rung) {
        Solver *solver = rungSolver(rung);
        for (unsigned attempt = 0; attempt <= options_.retries; ++attempt) {
            if (options_.cancel.cancelled()) {
                lastFailure_ = FailureKind::Cancelled;
                lastUnknownReason_ = "cancelled";
                ++stats_.unknown;
                return SatResult::Unknown;
            }

            SolverStats before = solver->stats();
            armWatchdog(solver);
            SatResult result = SatResult::Unknown;
            bool crashed = false;
            std::string crashWhat;
            try {
                result = solver->checkSat(assertions);
            } catch (const support::InternalError &) {
                disarmWatchdog();
                foldNonVerdictStats(stats_,
                                    solver->stats() - before);
                throw; // library bug; never absorbed
            } catch (const std::exception &error) {
                crashed = true;
                crashWhat = error.what();
            }
            bool deadlineFired = disarmWatchdog();
            foldNonVerdictStats(stats_, solver->stats() - before);
            bool cancelled = options_.cancel.cancelled();

            // A definite answer from an attempt the watchdog or a cancel
            // cut short is not trusted (Z3 4.8 can answer sat on an
            // unsat query then): it fails the attempt like an Unknown.
            if (!crashed && result != SatResult::Unknown &&
                !deadlineFired && !cancelled) {
                // A definite answer carries no failure, whatever the
                // attempts before it hit: a sandbox worker ships this
                // classification with the answer, and its parent only
                // counts an answer with FailureKind::None as definite.
                lastFailure_ = FailureKind::None;
                lastUnknownReason_.clear();
                if (rung > 0)
                    ++stats_.escalatedResolved;
                lastAnswering_ = solver;
                if (result == SatResult::Sat)
                    ++stats_.sat;
                else
                    ++stats_.unsat;
                return result;
            }

            // Classify this attempt's failure, most-specific first.
            if (crashed) {
                ++stats_.solverCrashes;
                lastUnknownReason_ = crashWhat;
                lastFailure_ =
                    crashWhat.find("memory") != std::string::npos
                        ? FailureKind::MemoryBudget
                        : FailureKind::SolverCrash;
            } else if (cancelled) {
                lastUnknownReason_ = "cancelled";
                lastFailure_ = FailureKind::Cancelled;
            } else if (deadlineFired) {
                lastUnknownReason_ = "watchdog deadline";
                lastFailure_ = FailureKind::Timeout;
            } else {
                lastUnknownReason_ = solver->lastUnknownReason();
                FailureKind kind = solver->lastFailureKind();
                lastFailure_ =
                    kind != FailureKind::None
                        ? kind
                        : classifyUnknownReason(lastUnknownReason_);
            }

            if (lastFailure_ == FailureKind::Cancelled) {
                ++stats_.unknown;
                return SatResult::Unknown; // retrying cancelled work
                                           // is pointless
            }
            if (attempt < options_.retries)
                ++stats_.guardedRetries;
        }
        if (rung + 1 < rungCount)
            ++stats_.guardedEscalations;
    }

    // Every rung exhausted: report Unknown carrying the final attempt's
    // classification. Crashes are absorbed here by design — the caller
    // gets a classified failure, never an exception.
    ++stats_.unknown;
    return SatResult::Unknown;
}

} // namespace keq::smt
