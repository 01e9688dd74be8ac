#include "src/smt/fault_injection.h"

#include <chrono>
#include <thread>

#include "src/support/diagnostics.h"
#include "src/support/rng.h"
#include "src/support/stopwatch.h"

namespace keq::smt {

namespace {

/** Which fault (if any) this call draws. */
enum class Fault
{
    None,
    Unknown,
    Timeout,
    Memory,
    Crash,
    Slowdown,
    Hang,
};

Fault
drawFault(const FaultPlan &plan, support::Rng &rng)
{
    // One roll against cumulative thresholds so the per-kind rates are
    // independent of evaluation order and each call consumes the same
    // number of draws regardless of outcome.
    uint64_t roll = rng.below(100);
    uint64_t edge = plan.crashPercent;
    if (roll < edge)
        return Fault::Crash;
    edge += plan.timeoutPercent;
    if (roll < edge)
        return Fault::Timeout;
    edge += plan.memoryPercent;
    if (roll < edge)
        return Fault::Memory;
    edge += plan.unknownPercent;
    if (roll < edge)
        return Fault::Unknown;
    edge += plan.hangPercent;
    if (roll < edge)
        return Fault::Hang;
    edge += plan.slowdownPercent;
    if (roll < edge)
        return Fault::Slowdown;
    return Fault::None;
}

} // namespace

FaultInjectingSolver::FaultInjectingSolver(TermFactory &factory,
                                           Solver &backend,
                                           FaultPlan plan)
    : factory_(factory), backend_(&backend), plan_(plan)
{}

void
FaultInjectingSolver::setTimeoutMs(unsigned timeout_ms)
{
    backend_->setTimeoutMs(timeout_ms);
}

void
FaultInjectingSolver::setMemoryBudgetMb(unsigned budget_mb)
{
    backend_->setMemoryBudgetMb(budget_mb);
}

void
FaultInjectingSolver::interruptQuery()
{
    interrupted_.store(true, std::memory_order_relaxed);
    backend_->interruptQuery();
}

void
FaultInjectingSolver::enableModelCapture(bool enabled)
{
    backend_->enableModelCapture(enabled);
}

bool
FaultInjectingSolver::lastModel(Assignment *out) const
{
    return backend_->lastModel(out);
}

std::string
FaultInjectingSolver::lastUnknownReason() const
{
    return lastUnknownReason_;
}

FailureKind
FaultInjectingSolver::lastFailureKind() const
{
    return lastFailure_;
}

SatResult
FaultInjectingSolver::checkSat(const std::vector<Term> &assertions)
{
    ++stats_.queries;
    lastUnknownReason_.clear();
    lastFailure_ = FailureKind::None;
    interrupted_.store(false, std::memory_order_relaxed);

    Fault fault = Fault::None;
    if (plan_.enabled()) {
        support::Rng rng =
            support::Rng::stream(plan_.seed, callIndex_);
        fault = drawFault(plan_, rng);
    }
    ++callIndex_;

    switch (fault) {
    case Fault::Crash:
        ++stats_.faultsInjected;
        ++stats_.unknown; // keeps sat+unsat+unknown == queries
        lastFailure_ = FailureKind::SolverCrash;
        throw SolverCrashError("injected solver crash");
    case Fault::Timeout:
        ++stats_.faultsInjected;
        ++stats_.unknown;
        lastUnknownReason_ = "timeout (injected)";
        lastFailure_ = FailureKind::Timeout;
        return SatResult::Unknown;
    case Fault::Memory:
        ++stats_.faultsInjected;
        ++stats_.unknown;
        lastUnknownReason_ = "max. memory exceeded (injected)";
        lastFailure_ = FailureKind::MemoryBudget;
        return SatResult::Unknown;
    case Fault::Unknown:
        ++stats_.faultsInjected;
        ++stats_.unknown;
        lastUnknownReason_ = "injected incompleteness";
        lastFailure_ = FailureKind::SolverUnknown;
        return SatResult::Unknown;
    case Fault::Hang: {
        // Interruptible busy-wait: blocks like a wedged backend would,
        // but responds to interruptQuery() so watchdog unit tests need
        // no real Z3 hang, and gives up after hangCapMs so a
        // watchdog-less caller cannot deadlock.
        ++stats_.faultsInjected;
        support::Stopwatch hang;
        while (!interrupted_.load(std::memory_order_relaxed) &&
               hang.seconds() * 1000.0 < plan_.hangCapMs) {
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        ++stats_.unknown;
        lastUnknownReason_ = interrupted_.load(std::memory_order_relaxed)
                                 ? "canceled (injected hang)"
                                 : "timeout (injected hang)";
        lastFailure_ = FailureKind::Timeout;
        return SatResult::Unknown;
    }
    case Fault::Slowdown:
        ++stats_.faultsInjected;
        std::this_thread::sleep_for(
            std::chrono::milliseconds(plan_.slowdownMs));
        break; // still solves below
    case Fault::None:
        break;
    }

    SolverStats before = backend_->stats();
    try {
        SatResult result = backend_->checkSat(assertions);
        foldNonVerdictStats(stats_, backend_->stats() - before);
        switch (result) {
        case SatResult::Sat:
            ++stats_.sat;
            break;
        case SatResult::Unsat:
            ++stats_.unsat;
            break;
        case SatResult::Unknown:
            ++stats_.unknown;
            lastUnknownReason_ = backend_->lastUnknownReason();
            lastFailure_ = backend_->lastFailureKind();
            if (lastFailure_ == FailureKind::None)
                lastFailure_ = classifyUnknownReason(lastUnknownReason_);
            break;
        }
        return result;
    } catch (const support::InternalError &) {
        throw; // library bug: not a solver failure
    } catch (...) {
        foldNonVerdictStats(stats_, backend_->stats() - before);
        ++stats_.unknown;
        lastFailure_ = backend_->lastFailureKind();
        if (lastFailure_ == FailureKind::None)
            lastFailure_ = FailureKind::SolverCrash;
        throw;
    }
}

} // namespace keq::smt
