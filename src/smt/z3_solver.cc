#include "src/smt/z3_solver.h"

#include <cstdio>
#include <cstdlib>
#include <iostream>

#include <z3++.h>

#include "src/smt/z3_lowering.h"
#include "src/support/diagnostics.h"
#include "src/support/stopwatch.h"

namespace keq::smt {

namespace {

/** KEQ_INC_DEBUG, read once per process rather than per query. */
bool
incrementalDebug()
{
    static const bool enabled = std::getenv("KEQ_INC_DEBUG") != nullptr;
    return enabled;
}

/**
 * KEQ_DUMP_SLOW_QUERIES=<seconds>, read once per process: a query that
 * takes longer is printed to stderr in SMT-LIB form. Negative when the
 * variable is unset.
 */
double
slowQuerySeconds()
{
    static const double threshold = [] {
        const char *env = std::getenv("KEQ_DUMP_SLOW_QUERIES");
        return env == nullptr ? -1.0 : std::strtod(env, nullptr);
    }();
    return threshold;
}

/** Z3's own "no limit" value; lets a limit be cleared on a live solver. */
constexpr unsigned kNoLimit = 4294967295u;

} // namespace

struct Z3Backend::Impl
{
    z3::context ctx;
    Z3Lowering lowering{ctx};
    std::optional<z3::solver> solver;
    /** Assertions currently on the scope stack, one scope each. */
    std::vector<Term> scopes;
    /** Limits currently applied to `solver`. */
    unsigned timeoutMs = 0;
    unsigned memoryMb = 0;

    /** The one solver constructor: QF_AUFBV, then the limits. */
    void
    fresh(unsigned timeout_ms, unsigned memory_mb)
    {
        solver.emplace(ctx, "QF_AUFBV");
        scopes.clear();
        applyLimits(timeout_ms, memory_mb);
    }

    void
    applyLimits(unsigned timeout_ms, unsigned memory_mb)
    {
        z3::params params(ctx);
        params.set("timeout", timeout_ms == 0 ? kNoLimit : timeout_ms);
        params.set("max_memory", memory_mb == 0 ? kNoLimit : memory_mb);
        solver->set(params);
        timeoutMs = timeout_ms;
        memoryMb = memory_mb;
    }

    /**
     * Keeps the first @p keep scopes, pushes each remaining assertion
     * in a scope of its own, then checks. Plain scoped asserts (no
     * assumption literals) keep Z3's full preprocessing enabled.
     */
    z3::check_result
    check(const std::vector<Term> &assertions, size_t keep)
    {
        if (scopes.size() > keep) {
            solver->pop(static_cast<unsigned>(scopes.size() - keep));
            scopes.resize(keep);
        }
        for (size_t i = keep; i < assertions.size(); ++i) {
            KEQ_ASSERT(assertions[i].sort().isBool(),
                       "checkSat: non-bool assertion");
            solver->push();
            solver->add(lowering.lower(assertions[i]));
            scopes.push_back(assertions[i]);
        }
        return solver->check();
    }
};

Z3Backend::Z3Backend(TermFactory &factory, bool incremental)
    : factory_(factory), incremental_(incremental)
{}

Z3Backend::~Z3Backend() = default;

bool
Z3Backend::lastModel(Assignment *out) const
{
    if (!lastModel_.has_value())
        return false;
    *out = *lastModel_;
    return true;
}

void
Z3Backend::setTimeoutMs(unsigned timeout_ms)
{
    timeoutMs_ = timeout_ms;
}

void
Z3Backend::setMemoryBudgetMb(unsigned budget_mb)
{
    memoryBudgetMb_ = budget_mb;
}

void
Z3Backend::interruptQuery()
{
    interruptRequested_.store(true);
    impl_.ifCreated([](Impl &impl) { impl.ctx.interrupt(); });
}

SatResult
Z3Backend::checkSat(const std::vector<Term> &assertions)
{
    support::Stopwatch watch;
    lastUnknownReason_.clear();
    lastFailure_ = FailureKind::None;
    lastModel_.reset();
    // Callers that interrupt re-fire until the query returns, so an
    // earlier, stale request may be forgotten here.
    interruptRequested_.store(false);
    Impl *impl = &impl_.get();
    z3::check_result z3_result = z3::unknown;
    try {
        // Incremental: rewind to the longest prefix shared with the
        // previous query (hash-consing makes the comparison a pointer
        // check) and push only the new suffix. Cold: a fresh solver.
        size_t prefix = 0;
        if (!incremental_ || !impl->solver.has_value()) {
            impl->fresh(timeoutMs_, memoryBudgetMb_);
        } else {
            if (impl->timeoutMs != timeoutMs_ ||
                impl->memoryMb != memoryBudgetMb_)
                impl->applyLimits(timeoutMs_, memoryBudgetMb_);
            while (prefix < impl->scopes.size() &&
                   prefix < assertions.size() &&
                   impl->scopes[prefix].id() == assertions[prefix].id())
                ++prefix;
        }
        support::Stopwatch check_watch;
        z3_result = impl->check(assertions, prefix);
        if (incrementalDebug())
            std::fprintf(stderr, "inc n=%zu prefix=%zu t=%.4f\n",
                         assertions.size(), prefix,
                         check_watch.seconds());
        stats_.incrementalReused += prefix;
        ++(prefix > 0 ? stats_.incrementalSolves : stats_.coldSolves);

        // Soundness guardrail: an incremental Unknown is retried on a
        // fresh solver, which then stays as the persistent one, so
        // reuse changes timings but not verdicts. The retry also takes
        // a fresh context: after a timed-out check, Z3 can ignore the
        // next timeout in the same context. An interrupted check is not
        // retried: it was asked to stop.
        if (z3_result == z3::unknown && incremental_ &&
            !interruptRequested_.load()) {
            ++stats_.incrementalFallbacks;
            impl_.reset();
            impl = &impl_.get();
            impl->fresh(timeoutMs_, memoryBudgetMb_);
            z3_result = impl->check(assertions, 0);
        }
        // An answer from a check an interrupt cut short is not an
        // answer: Z3 4.8 can report sat on an unsat query then. Report
        // it Unknown, in Z3's own words, so no cache stores it.
        if (z3_result != z3::unknown && interruptRequested_.load()) {
            z3_result = z3::unknown;
            lastUnknownReason_ = "canceled";
        } else if (z3_result == z3::unknown) {
            lastUnknownReason_ = impl->solver->reason_unknown();
        }
        if (z3_result == z3::unknown)
            lastFailure_ = classifyUnknownReason(lastUnknownReason_);
        if (z3_result == z3::sat && captureModels_) {
            try {
                extractModel(impl->solver->get_model(),
                             &lastModel_.emplace());
            } catch (const z3::exception &) {
                lastModel_.reset();
            }
        }
        double seconds = watch.seconds();
        if (slowQuerySeconds() >= 0.0 && seconds > slowQuerySeconds()) {
            std::cerr << "; slow query (" << seconds << " s, "
                      << impl->scopes.size() << " scopes)\n"
                      << impl->solver->to_smt2() << "\n";
        }
        if (!incremental_) {
            // After a timed-out check, Z3 can ignore the next soft
            // timeout in the same context, so an Unknown drops the
            // whole context, as the incremental fallback does.
            if (z3_result == z3::unknown)
                impl_.reset();
            else
                impl->solver.reset();
        }
    } catch (const z3::exception &error) {
        // The scope stack may hold a half-pushed assertion, and the
        // context itself may be unusable: an interrupt that lands while
        // no check runs stays pending and makes every later push throw
        // "canceled". Drop the whole context; the next query builds a
        // fresh one. Memory exhaustion surfaces as an allocation
        // exception with some Z3 configurations.
        impl_.reset();
        std::string what = error.msg();
        lastFailure_ = what.find("memory") != std::string::npos
                           ? FailureKind::MemoryBudget
                           : FailureKind::SolverCrash;
        throw SolverCrashError("z3: " + what);
    }

    ++stats_.queries;
    stats_.totalSeconds += watch.seconds();
    switch (z3_result) {
      case z3::sat:
        ++stats_.sat;
        return SatResult::Sat;
      case z3::unsat:
        ++stats_.unsat;
        return SatResult::Unsat;
      case z3::unknown:
        ++stats_.unknown;
        return SatResult::Unknown;
    }
    KEQ_ASSERT(false, "checkSat: unhandled Z3 result");
    return SatResult::Unknown;
}

} // namespace keq::smt
