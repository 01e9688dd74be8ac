#include "src/smt/z3_solver.h"

#include <cstdlib>
#include <iostream>

#include <z3++.h>

#include "src/smt/z3_lowering.h"
#include "src/support/diagnostics.h"
#include "src/support/stopwatch.h"

namespace keq::smt {

struct Z3Solver::Impl
{
    z3::context ctx;
    Z3Lowering lowering{ctx};
};

Z3Solver::Z3Solver(TermFactory &factory, BackendTuning tuning)
    : factory_(factory), tuning_(std::move(tuning))
{}

Z3Solver::~Z3Solver() = default;

bool
Z3Solver::lastModel(Assignment *out) const
{
    if (!lastModel_.has_value())
        return false;
    *out = *lastModel_;
    return true;
}

void
Z3Solver::setTimeoutMs(unsigned timeout_ms)
{
    timeoutMs_ = timeout_ms;
}

void
Z3Solver::setMemoryBudgetMb(unsigned budget_mb)
{
    memoryBudgetMb_ = budget_mb;
}

void
Z3Solver::interruptQuery()
{
    impl_.ifCreated([](Impl &impl) { impl.ctx.interrupt(); });
}

SatResult
Z3Solver::checkSat(const std::vector<Term> &assertions)
{
    support::Stopwatch watch;
    lastUnknownReason_.clear();
    lastFailure_ = FailureKind::None;
    Impl &impl = impl_.get();
    z3::solver solver(impl.ctx);
    if (timeoutMs_ > 0 || memoryBudgetMb_ > 0) {
        z3::params params(impl.ctx);
        if (timeoutMs_ > 0)
            params.set("timeout", timeoutMs_);
        if (memoryBudgetMb_ > 0)
            params.set("max_memory", memoryBudgetMb_);
        solver.set(params);
    }
    if (!tuning_.empty())
        applyTuningParams(impl.ctx, solver, tuning_);
    z3::check_result z3_result = z3::unknown;
    try {
        for (const Term &assertion : assertions) {
            KEQ_ASSERT(assertion.sort().isBool(),
                       "checkSat: non-bool assertion");
            solver.add(impl.lowering.lower(assertion));
        }
        z3_result = solver.check();
        if (z3_result == z3::unknown) {
            lastUnknownReason_ = solver.reason_unknown();
            lastFailure_ = classifyUnknownReason(lastUnknownReason_);
        }
    } catch (const z3::exception &error) {
        // An abnormal backend failure is a crash, not a verdict; the
        // GuardedSolver ladder absorbs it. Memory exhaustion surfaces
        // as an allocation exception with some Z3 configurations.
        std::string what = error.msg();
        lastFailure_ = what.find("memory") != std::string::npos
                           ? FailureKind::MemoryBudget
                           : FailureKind::SolverCrash;
        throw SolverCrashError("z3: " + what);
    }

    ++stats_.queries;
    double seconds = watch.seconds();
    stats_.totalSeconds += seconds;

    // Diagnostics: KEQ_DUMP_SLOW_QUERIES=<seconds> prints any query that
    // exceeds the threshold in SMT-LIB form to stderr.
    static const char *threshold_env =
        std::getenv("KEQ_DUMP_SLOW_QUERIES");
    if (threshold_env != nullptr &&
        seconds > std::strtod(threshold_env, nullptr)) {
        std::cerr << "; slow query (" << seconds << " s)\n"
                  << solver.to_smt2() << "\n";
    }
    lastModel_.reset();
    if (z3_result == z3::sat && captureModels_) {
        lastModel_.emplace();
        try {
            extractModel(solver.get_model(), &*lastModel_);
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
