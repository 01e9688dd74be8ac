#include "src/smt/incremental_z3_solver.h"

#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>

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

} // namespace

struct IncrementalZ3Solver::Impl
{
    z3::context ctx;
    Z3Lowering lowering{ctx};
    /**
     * Logic-specialized solver: every checker term is quantifier-free
     * bitvector/bool/array, and naming the logic keeps Z3 on the
     * specialized engine even in incremental (push/pop) mode, where the
     * plain combined solver would fall back to the generic SMT core —
     * measurably slower on exactly our query mix.
     */
    z3::solver solver{ctx, "QF_AUFBV"};
    /** Assertions currently on the scope stack, one scope each. */
    std::vector<Term> scopes;
    /** Limits currently applied to `solver`; track the setters. */
    unsigned appliedTimeoutMs = 0;
    unsigned appliedMemoryMb = 0;
    bool limitsApplied = false;

    void
    applyLimits(z3::solver &target, unsigned timeout_ms,
                unsigned memory_mb)
    {
        z3::params params(ctx);
        // Z3's own "no limit" sentinel; lets a nonzero limit be
        // cleared again without recreating the solver.
        params.set("timeout",
                   timeout_ms == 0 ? 4294967295u : timeout_ms);
        params.set("max_memory",
                   memory_mb == 0 ? 4294967295u : memory_mb);
        target.set(params);
    }

    /** Drops all live scopes, e.g. after an Unknown poisons state. */
    void
    reset()
    {
        solver = z3::solver(ctx);
        scopes.clear();
        appliedTimeoutMs = 0;
        appliedMemoryMb = 0;
        limitsApplied = false;
    }
};

IncrementalZ3Solver::IncrementalZ3Solver(TermFactory &factory,
                                         BackendTuning tuning)
    : factory_(factory), tuning_(std::move(tuning))
{}

IncrementalZ3Solver::~IncrementalZ3Solver() = default;

bool
IncrementalZ3Solver::lastModel(Assignment *out) const
{
    if (!lastModel_.has_value())
        return false;
    *out = *lastModel_;
    return true;
}

void
IncrementalZ3Solver::setTimeoutMs(unsigned timeout_ms)
{
    timeoutMs_ = timeout_ms;
}

void
IncrementalZ3Solver::setMemoryBudgetMb(unsigned budget_mb)
{
    memoryBudgetMb_ = budget_mb;
}

void
IncrementalZ3Solver::interruptQuery()
{
    impl_.ifCreated([](Impl &impl) { impl.ctx.interrupt(); });
}

SatResult
IncrementalZ3Solver::checkSat(const std::vector<Term> &assertions)
{
    support::Stopwatch watch;
    lastUnknownReason_.clear();
    lastFailure_ = FailureKind::None;
    Impl &impl = impl_.get();
    if (!impl.limitsApplied || impl.appliedTimeoutMs != timeoutMs_ ||
        impl.appliedMemoryMb != memoryBudgetMb_) {
        impl.applyLimits(impl.solver, timeoutMs_, memoryBudgetMb_);
        if (!tuning_.empty())
            applyTuningParams(impl.ctx, impl.solver, tuning_);
        impl.appliedTimeoutMs = timeoutMs_;
        impl.appliedMemoryMb = memoryBudgetMb_;
        impl.limitsApplied = true;
    }

    // Rewind to the longest prefix shared with the previous query, then
    // push the new suffix one scope at a time. Hash-consing makes the
    // prefix comparison a pointer check. Assertions are added directly
    // (plain scoped asserts, no assumption literals): Z3's full
    // preprocessing stays enabled, which matters more than the lemmas an
    // assumption-based encoding would additionally retain.
    size_t prefix = 0;
    z3::check_result z3_result = z3::unknown;
    std::optional<z3::model> model;
    try {
        while (prefix < impl.scopes.size() &&
               prefix < assertions.size() &&
               impl.scopes[prefix].id() == assertions[prefix].id()) {
            ++prefix;
        }
        if (impl.scopes.size() > prefix) {
            impl.solver.pop(
                static_cast<unsigned>(impl.scopes.size() - prefix));
            impl.scopes.resize(prefix);
        }
        for (size_t i = prefix; i < assertions.size(); ++i) {
            KEQ_ASSERT(assertions[i].sort().isBool(),
                       "checkSat: non-bool assertion");
            impl.solver.push();
            impl.solver.add(impl.lowering.lower(assertions[i]));
            impl.scopes.push_back(assertions[i]);
        }

        support::Stopwatch check_watch;
        z3_result = impl.solver.check();
        if (incrementalDebug())
            std::fprintf(stderr, "inc n=%zu prefix=%zu t=%.4f\n",
                         assertions.size(), prefix,
                         check_watch.seconds());

        stats_.incrementalReused += prefix;
        if (prefix > 0)
            ++stats_.incrementalSolves;
        else
            ++stats_.coldSolves;

        if (z3_result == z3::sat && captureModels_) {
            try {
                model.emplace(impl.solver.get_model());
            } catch (const z3::exception &) {
            }
        }

        if (z3_result == z3::unknown) {
            // Soundness guardrail: never report an Unknown that a cold
            // solver would have answered. Retry fresh, then rebuild the
            // persistent solver — its state may be poisoned. (After a
            // watchdog interrupt this fallback check re-enters Z3; the
            // watchdog re-interrupts until we return.)
            ++stats_.incrementalFallbacks;
            z3::solver fallback(impl.ctx);
            impl.applyLimits(fallback, timeoutMs_, memoryBudgetMb_);
            if (!tuning_.empty())
                applyTuningParams(impl.ctx, fallback, tuning_);
            for (const Term &assertion : assertions)
                fallback.add(impl.lowering.lower(assertion));
            z3_result = fallback.check();
            if (z3_result == z3::unknown)
                lastUnknownReason_ = fallback.reason_unknown();
            if (z3_result == z3::sat && captureModels_) {
                try {
                    model.emplace(fallback.get_model());
                } catch (const z3::exception &) {
                }
            }
            impl.reset();
        }
    } catch (const z3::exception &error) {
        // The scope stack may hold a half-pushed assertion, and the
        // context itself may be unusable: an interrupt that lands while
        // no check runs stays pending and makes every later push throw
        // "canceled". Drop the whole context (the model first: it
        // lives in the context); the next query builds a fresh one.
        model.reset();
        impl_.reset();
        std::string what = error.msg();
        lastFailure_ = what.find("memory") != std::string::npos
                           ? FailureKind::MemoryBudget
                           : FailureKind::SolverCrash;
        throw SolverCrashError("z3(incremental): " + what);
    }
    if (z3_result == z3::unknown)
        lastFailure_ = classifyUnknownReason(lastUnknownReason_);

    ++stats_.queries;
    stats_.totalSeconds += watch.seconds();

    lastModel_.reset();
    if (model.has_value()) {
        lastModel_.emplace();
        try {
            extractModel(*model, &*lastModel_);
        } catch (const z3::exception &) {
            lastModel_.reset();
        }
    }

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
