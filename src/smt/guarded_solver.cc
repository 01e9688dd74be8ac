#include "src/smt/guarded_solver.h"

#include <algorithm>

#include "src/support/diagnostics.h"
#include "src/support/rng.h"

namespace keq::smt {

using Clock = std::chrono::steady_clock;

GuardedSolver::GuardedSolver(TermFactory &factory, Solver &primary,
                             std::vector<RungFactory> fallbacks,
                             GuardedSolverOptions options)
    : factory_(factory), primary_(primary),
      rungFactories_(std::move(fallbacks)), options_(options)
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
    for (auto &rung : rungs_) {
        if (rung)
            rung->setTimeoutMs(timeout_ms);
    }
}

void
GuardedSolver::setMemoryBudgetMb(unsigned budget_mb)
{
    memoryBudgetMb_ = budget_mb;
    primary_.setMemoryBudgetMb(budget_mb);
    for (auto &rung : rungs_) {
        if (rung)
            rung->setMemoryBudgetMb(budget_mb);
    }
}

void
GuardedSolver::enableModelCapture(bool enabled)
{
    captureModels_ = enabled;
    primary_.enableModelCapture(enabled);
    for (auto &rung : rungs_) {
        if (rung)
            rung->enableModelCapture(enabled);
    }
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
    // Forward to whatever could be solving right now; harmless for idle
    // rungs (a stray interrupt makes at most one future attempt return
    // Unknown, which the ladder retries).
    primary_.interruptQuery();
    for (auto &rung : rungs_) {
        if (rung)
            rung->interruptQuery();
    }
}

Solver *
GuardedSolver::rungSolver(size_t rung)
{
    if (rung == 0)
        return &primary_;
    size_t index = rung - 1;
    if (rungs_.size() <= index)
        rungs_.resize(rungFactories_.size());
    if (!rungs_[index]) {
        rungs_[index] = rungFactories_[index]();
        KEQ_ASSERT(rungs_[index] != nullptr,
                   "GuardedSolver: rung factory returned null");
        rungs_[index]->setTimeoutMs(timeoutMs_);
        rungs_[index]->setMemoryBudgetMb(memoryBudgetMb_);
        rungs_[index]->enableModelCapture(captureModels_);
    }
    return rungs_[index].get();
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
                // attempt, which the ladder absorbs; it can never flip
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

    support::Rng jitter(options_.jitterSeed ^ stats_.queries);
    size_t rungCount = 1 + rungFactories_.size();
    unsigned attemptNumber = 0; // across rungs, for backoff growth

    for (size_t rung = 0; rung < rungCount; ++rung) {
        Solver *solver = rungSolver(rung);
        for (unsigned attempt = 0; attempt <= options_.retries;
             ++attempt, ++attemptNumber) {
            if (options_.cancel.cancelled()) {
                lastFailure_ = FailureKind::Cancelled;
                lastUnknownReason_ = "cancelled";
                ++stats_.unknown;
                return SatResult::Unknown;
            }
            if (attemptNumber > 0 && options_.backoffBaseMs > 0) {
                // Exponential backoff with jitter: decorrelates retry
                // storms across workers hammering a shared resource.
                unsigned shift = std::min(attemptNumber - 1, 4u);
                uint64_t base =
                    static_cast<uint64_t>(options_.backoffBaseMs)
                    << shift;
                std::this_thread::sleep_for(std::chrono::milliseconds(
                    base + jitter.below(options_.backoffBaseMs)));
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

    // Ladder exhausted: report Unknown carrying the final attempt's
    // classification. Crashes are absorbed here by design — the caller
    // gets a classified failure, never an exception.
    ++stats_.unknown;
    return SatResult::Unknown;
}

} // namespace keq::smt
