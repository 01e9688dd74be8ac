#ifndef KEQ_SMT_PORTFOLIO_SOLVER_H
#define KEQ_SMT_PORTFOLIO_SOLVER_H

/**
 * @file
 * Portfolio racing over differently-tuned solver strategy lanes.
 *
 * A hard query rarely looks hard to every Z3 configuration: the default
 * QF_AUFBV engine, an int2bv-translating configuration, and a cold
 * fresh-solver lane have close to uncorrelated worst cases. The
 * PortfolioSolver fans each checkSat out to N persistent lane threads —
 * each owning its own backend (own z3::context) built from a LaneConfig
 * — takes the first *definite* Sat/Unsat answer, and reaps the losers
 * through the same re-firing interruptQuery() lever the GuardedSolver
 * watchdog uses (an interrupt that lands before a lane's backend has
 * created its context is a no-op, so we keep firing until the lane
 * returns).
 *
 * Verdict-counter contract: one checkSat is ONE logical query no matter
 * how many lanes raced it. Lane work is folded through
 * foldNonVerdictStats, race outcomes land in the portfolio counters
 * (portfolioWins per lane, portfolioCancellations,
 * crossLaneDisagreements), and a losing lane's interrupt-induced
 * Unknown never surfaces as a user-visible failure classification.
 *
 * Disagreement oracle: if two lanes return contradictory definite
 * verdicts for the same assertions, the portfolio refuses to pick a
 * side — it reports Unknown with FailureKind::PortfolioDisagreement and
 * bumps crossLaneDisagreements. Z3 can return a wrong definite answer
 * from a check that an interrupt cut short, so a reaped loser's answer
 * is first re-checked on the portfolio's own untuned Z3Solver and
 * dropped if the re-check contradicts it (lanesDisagree); only a
 * contradiction that survives counts. Strategy disagreement is a free
 * differential-soundness check; fuzz campaigns surface it as a
 * soundness bug.
 *
 * Threading contract: checkSat blocks until every lane has quiesced
 * before returning, so lane threads only ever read the shared
 * hash-consed term DAG while the checker thread is parked inside
 * checkSat — the TermFactory is never mutated concurrently with a
 * reader.
 */

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/smt/evaluator.h"
#include "src/smt/solver.h"
#include "src/smt/term_factory.h"

namespace keq::smt {

/** One strategy lane: a named, tuned backend configuration. */
struct LaneConfig
{
    std::string name;        ///< stable label ("default", "int2bv", ...)
    /** The roster entry it was parsed from ("cold:random_seed=3"); a
     *  sandboxed lane sends it to its worker. */
    std::string entry;
    bool incremental = true; ///< scope-reusing backend vs cold fresh-solver
    BackendTuning tuning;    ///< best-effort Z3 parameters
};

/**
 * Resolves a built-in lane name. Known names: "default" (incremental
 * QF_AUFBV, untuned), "int2bv" (incremental, bitvector-to-integer
 * translation plus aggressive rewriting), "cold" (fresh solver per
 * query, no incrementality), and "seed<K>" (incremental with
 * random_seed K, a cheap way to decorrelate extra lanes). Returns
 * false with @p error set for anything else.
 */
bool laneConfigFromName(const std::string &name, LaneConfig &out,
                        std::string &error);

/**
 * The roster spec of the built-in N-lane portfolio:
 * 1 lane: default · 2: default,cold · 3: default,int2bv,cold ·
 * 4: default,int2bv,cold,seed7. N is clamped to
 * [1, SolverStats::kPortfolioMaxLanes].
 */
std::string defaultPortfolioSpec(unsigned lanes);

/** The lanes of defaultPortfolioSpec(@p lanes). */
std::vector<LaneConfig> defaultPortfolioLanes(unsigned lanes);

/**
 * Parses a --portfolio-lanes spec: comma-separated lane entries, each a
 * built-in name optionally followed by `:key=value` tuning overrides
 * (e.g. "default,int2bv,cold:random_seed=3"). At most
 * SolverStats::kPortfolioMaxLanes entries. Returns false with @p error
 * set on malformed input.
 */
bool parsePortfolioLanes(const std::string &spec,
                         std::vector<LaneConfig> &out,
                         std::string &error);

/** Builds the in-process backend a LaneConfig describes. */
std::unique_ptr<Solver> makeLaneBackend(TermFactory &factory,
                                        const LaneConfig &config);

/** One lane's answer to a race, as the disagreement oracle sees it. */
struct LaneAnswer
{
    SatResult result = SatResult::Unknown; ///< Unknown when it failed
    bool interrupted = false; ///< reaped while it was still solving
};

/**
 * The disagreement oracle of both portfolios (PortfolioSolver and
 * WorkerSupervisor::solve). Z3 can return a wrong definite answer
 * from a check an interrupt cut short, so when the answers contradict
 * each other and an interrupted lane gave one of them, @p recheck runs
 * the query once more and every interrupted answer it definitely
 * contradicts becomes Unknown in @p answers. @p recheck must start with
 * no interrupt pending and answer Unknown when it fails or is stopped,
 * which leaves the contradiction standing. Returns whether Sat and
 * Unsat answers both remain.
 */
bool lanesDisagree(std::vector<LaneAnswer> &answers,
                   const std::function<SatResult()> &recheck);

/** Races N strategy lanes per query; first definite answer wins. */
class PortfolioSolver : public Solver
{
  public:
    /**
     * @p lanes must hold 1..SolverStats::kPortfolioMaxLanes configs;
     * each lane's backend and thread are created eagerly and live for
     * the solver's lifetime (warm lanes across queries).
     */
    PortfolioSolver(TermFactory &factory, std::vector<LaneConfig> lanes);
    ~PortfolioSolver() override;

    SatResult checkSat(const std::vector<Term> &assertions) override;
    void setTimeoutMs(unsigned timeout_ms) override;
    void setMemoryBudgetMb(unsigned budget_mb) override;

    /**
     * Interrupts every lane and the re-check solver; safe from another
     * thread (the outer GuardedSolver watchdog re-fires this until
     * checkSat returns, which forwards each firing to all in-flight
     * lanes).
     */
    void interruptQuery() override;

    void enableModelCapture(bool enabled) override;
    bool lastModel(Assignment *out) const override;

    std::string lastUnknownReason() const override;
    FailureKind lastFailureKind() const override;
    const SolverStats &stats() const override { return stats_; }

    size_t laneCount() const;
    const std::string &laneName(size_t lane) const;

  protected:
    TermFactory &factory() override { return factory_; }

  private:
    struct Lane;
    struct State;

    void laneMain(size_t lane);

    TermFactory &factory_;
    std::unique_ptr<State> state_;
    SolverStats stats_;
    std::string lastUnknownReason_;
    FailureKind lastFailure_ = FailureKind::None;
    std::optional<Assignment> lastModel_;
};

} // namespace keq::smt

#endif // KEQ_SMT_PORTFOLIO_SOLVER_H
