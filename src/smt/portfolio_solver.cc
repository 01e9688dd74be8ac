#include "src/smt/portfolio_solver.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>

#include "src/smt/incremental_z3_solver.h"
#include "src/support/diagnostics.h"

namespace keq::smt {

namespace {

/** Period of the loser-reaping interrupt re-fire loop. */
constexpr auto kReapPeriod = std::chrono::milliseconds(2);

std::vector<std::string>
splitOn(const std::string &text, char sep)
{
    std::vector<std::string> parts;
    size_t start = 0;
    while (true) {
        size_t end = text.find(sep, start);
        parts.push_back(text.substr(start, end - start));
        if (end == std::string::npos)
            break;
        start = end + 1;
    }
    return parts;
}

} // namespace

bool
laneConfigFromName(const std::string &name, LaneConfig &out,
                   std::string &error)
{
    LaneConfig config;
    config.name = name;
    config.entry = name;
    if (name == "default") {
        config.incremental = true;
    } else if (name == "int2bv") {
        // Bitvector-to-integer translation changes which theory engine
        // carries the arithmetic; both spellings are listed because the
        // parameter namespace differs across Z3 builds and application
        // is best-effort.
        config.incremental = true;
        config.tuning = {{"bv.enable_int2bv", "true"},
                         {"smt.bv.enable_int2bv", "true"},
                         {"pull_nested_quantifiers", "false"}};
    } else if (name == "cold") {
        config.incremental = false;
    } else if (name.rfind("seed", 0) == 0 && name.size() > 4 &&
               name.find_first_not_of("0123456789", 4) ==
                   std::string::npos) {
        std::string seed = name.substr(4);
        config.incremental = true;
        config.tuning = {{"random_seed", seed},
                         {"smt.random_seed", seed},
                         {"sat.random_seed", seed}};
    } else {
        error = "unknown portfolio lane '" + name +
                "' (expected default|int2bv|cold|seed<K>)";
        return false;
    }
    out = std::move(config);
    return true;
}

std::string
defaultPortfolioSpec(unsigned lanes)
{
    // Two lanes pair the incremental default with the cold lane — the
    // most decorrelated pair; three and four extend with tuned lanes.
    static const char *const kSpecs[] = {
        "default", "default,cold", "default,int2bv,cold",
        "default,int2bv,cold,seed7"};
    static_assert(std::size(kSpecs) == SolverStats::kPortfolioMaxLanes);
    lanes = std::clamp<unsigned>(
        lanes, 1,
        static_cast<unsigned>(SolverStats::kPortfolioMaxLanes));
    return kSpecs[lanes - 1];
}

std::vector<LaneConfig>
defaultPortfolioLanes(unsigned lanes)
{
    std::vector<LaneConfig> configs;
    std::string error;
    bool ok = parsePortfolioLanes(defaultPortfolioSpec(lanes), configs,
                                  error);
    KEQ_ASSERT(ok, "defaultPortfolioLanes: bad built-in spec");
    return configs;
}

bool
parsePortfolioLanes(const std::string &spec, std::vector<LaneConfig> &out,
                    std::string &error)
{
    std::vector<LaneConfig> configs;
    for (const std::string &entry : splitOn(spec, ',')) {
        if (entry.empty()) {
            error = "empty lane entry in portfolio spec";
            return false;
        }
        std::vector<std::string> pieces = splitOn(entry, ':');
        LaneConfig config;
        if (!laneConfigFromName(pieces[0], config, error))
            return false;
        config.entry = entry;
        for (size_t i = 1; i < pieces.size(); ++i) {
            size_t eq = pieces[i].find('=');
            if (eq == std::string::npos || eq == 0 ||
                eq + 1 == pieces[i].size()) {
                error = "bad lane tuning '" + pieces[i] +
                        "' (expected key=value)";
                return false;
            }
            config.tuning.emplace_back(pieces[i].substr(0, eq),
                                       pieces[i].substr(eq + 1));
        }
        configs.push_back(std::move(config));
    }
    if (configs.empty()) {
        error = "portfolio spec names no lanes";
        return false;
    }
    if (configs.size() > SolverStats::kPortfolioMaxLanes) {
        error = "portfolio spec names more than " +
                std::to_string(SolverStats::kPortfolioMaxLanes) +
                " lanes";
        return false;
    }
    out = std::move(configs);
    return true;
}

std::unique_ptr<Solver>
makeLaneBackend(TermFactory &factory, const LaneConfig &config)
{
    if (config.incremental)
        return std::make_unique<IncrementalZ3Solver>(factory,
                                                     config.tuning);
    return std::make_unique<Z3Solver>(factory, config.tuning);
}

bool
lanesDisagree(std::vector<LaneAnswer> &answers,
              const std::function<SatResult()> &recheck)
{
    auto contradicted = [&] {
        bool saw_sat = false;
        bool saw_unsat = false;
        for (const LaneAnswer &answer : answers) {
            saw_sat |= answer.result == SatResult::Sat;
            saw_unsat |= answer.result == SatResult::Unsat;
        }
        return saw_sat && saw_unsat;
    };
    auto doubtful = [](const LaneAnswer &answer) {
        return answer.interrupted && answer.result != SatResult::Unknown;
    };
    if (!contradicted() ||
        std::none_of(answers.begin(), answers.end(), doubtful))
        return contradicted();
    SatResult truth = recheck();
    if (truth == SatResult::Unknown)
        return true;
    for (LaneAnswer &answer : answers) {
        if (doubtful(answer) && answer.result != truth)
            answer.result = SatResult::Unknown;
    }
    return contradicted();
}

struct PortfolioSolver::Lane
{
    LaneConfig config;
    std::unique_ptr<Solver> backend;
    std::thread thread;
    // Remaining fields are guarded by State::mutex.
    uint64_t generation = 0; ///< last generation this lane picked up
    bool done = true;
    bool crashed = false;
    bool reaped = false; ///< interrupted because another lane won
    SatResult result = SatResult::Unknown;
};

struct PortfolioSolver::State
{
    std::mutex mutex;
    std::condition_variable workCv; ///< wakes lanes on a new generation
    std::condition_variable doneCv; ///< wakes the caller on lane results
    std::vector<std::unique_ptr<Lane>> lanes;
    // Guarded by mutex.
    uint64_t generation = 0;
    const std::vector<Term> *work = nullptr;
    size_t doneCount = 0;
    int winner = -1;
    bool stop = false;
    /** Untuned, used only by the caller thread for re-checks. */
    std::unique_ptr<Solver> recheck;
    // Settings snapshotted by lanes at race start (guarded by mutex).
    unsigned timeoutMs = 0;
    unsigned memoryBudgetMb = 0;
    bool captureModels = false;
};

PortfolioSolver::PortfolioSolver(TermFactory &factory,
                                 std::vector<LaneConfig> lanes)
    : factory_(factory), state_(std::make_unique<State>())
{
    KEQ_ASSERT(!lanes.empty() &&
                   lanes.size() <= SolverStats::kPortfolioMaxLanes,
               "PortfolioSolver: bad lane count");
    for (LaneConfig &config : lanes) {
        auto lane = std::make_unique<Lane>();
        lane->config = std::move(config);
        lane->backend = makeLaneBackend(factory_, lane->config);
        state_->lanes.push_back(std::move(lane));
    }
    state_->recheck = std::make_unique<Z3Solver>(factory_);
    for (size_t i = 0; i < state_->lanes.size(); ++i) {
        state_->lanes[i]->thread =
            std::thread([this, i] { laneMain(i); });
    }
}

PortfolioSolver::~PortfolioSolver()
{
    {
        std::lock_guard<std::mutex> lock(state_->mutex);
        state_->stop = true;
    }
    state_->workCv.notify_all();
    for (auto &lane : state_->lanes) {
        if (lane->thread.joinable())
            lane->thread.join();
    }
}

size_t
PortfolioSolver::laneCount() const
{
    return state_->lanes.size();
}

const std::string &
PortfolioSolver::laneName(size_t lane) const
{
    KEQ_ASSERT(lane < state_->lanes.size(), "laneName: bad index");
    return state_->lanes[lane]->config.name;
}

void
PortfolioSolver::setTimeoutMs(unsigned timeout_ms)
{
    std::lock_guard<std::mutex> lock(state_->mutex);
    state_->timeoutMs = timeout_ms;
}

void
PortfolioSolver::setMemoryBudgetMb(unsigned budget_mb)
{
    std::lock_guard<std::mutex> lock(state_->mutex);
    state_->memoryBudgetMb = budget_mb;
}

void
PortfolioSolver::enableModelCapture(bool enabled)
{
    std::lock_guard<std::mutex> lock(state_->mutex);
    state_->captureModels = enabled;
}

void
PortfolioSolver::interruptQuery()
{
    // Backend interrupts are thread-safe by the Solver contract
    // (Z3_interrupt on the lane's own context); no lock needed, and the
    // outer watchdog re-fires this until checkSat returns.
    for (auto &lane : state_->lanes)
        lane->backend->interruptQuery();
    state_->recheck->interruptQuery();
}

bool
PortfolioSolver::lastModel(Assignment *out) const
{
    if (!lastModel_.has_value())
        return false;
    *out = *lastModel_;
    return true;
}

std::string
PortfolioSolver::lastUnknownReason() const
{
    return lastUnknownReason_;
}

FailureKind
PortfolioSolver::lastFailureKind() const
{
    return lastFailure_;
}

void
PortfolioSolver::laneMain(size_t lane_index)
{
    State &state = *state_;
    Lane &lane = *state.lanes[lane_index];
    std::unique_lock<std::mutex> lock(state.mutex);
    while (true) {
        state.workCv.wait(lock, [&] {
            return state.stop || lane.generation != state.generation;
        });
        if (state.stop)
            return;
        lane.generation = state.generation;
        const std::vector<Term> *work = state.work;
        unsigned timeout_ms = state.timeoutMs;
        unsigned memory_mb = state.memoryBudgetMb;
        bool capture = state.captureModels;
        lock.unlock();

        SatResult result = SatResult::Unknown;
        bool crashed = false;
        try {
            lane.backend->setTimeoutMs(timeout_ms);
            lane.backend->setMemoryBudgetMb(memory_mb);
            lane.backend->enableModelCapture(capture);
            result = lane.backend->checkSat(*work);
        } catch (const SolverCrashError &) {
            crashed = true;
        } catch (const std::exception &) {
            crashed = true;
        }

        lock.lock();
        lane.done = true;
        lane.crashed = crashed;
        lane.result = crashed ? SatResult::Unknown : result;
        ++state.doneCount;
        if (!crashed && result != SatResult::Unknown &&
            state.winner < 0) {
            state.winner = static_cast<int>(lane_index);
        }
        state.doneCv.notify_all();
    }
}

SatResult
PortfolioSolver::checkSat(const std::vector<Term> &assertions)
{
    State &state = *state_;
    const size_t lane_count = state.lanes.size();
    lastUnknownReason_.clear();
    lastFailure_ = FailureKind::None;
    lastModel_.reset();

    // Lane backends are quiescent between races, so their stats are
    // safe to snapshot here.
    std::vector<SolverStats> before(lane_count);
    for (size_t i = 0; i < lane_count; ++i)
        before[i] = state.lanes[i]->backend->stats();

    size_t losers_reaped = 0;
    unsigned timeout_ms = 0;
    unsigned memory_mb = 0;
    {
        std::unique_lock<std::mutex> lock(state.mutex);
        timeout_ms = state.timeoutMs;
        memory_mb = state.memoryBudgetMb;
        state.work = &assertions;
        state.winner = -1;
        state.doneCount = 0;
        for (auto &lane : state.lanes) {
            lane->done = false;
            lane->reaped = false;
        }
        ++state.generation;
        state.workCv.notify_all();

        // Phase 1: wait for the first definite answer (or everyone).
        state.doneCv.wait(lock, [&] {
            return state.winner >= 0 || state.doneCount == lane_count;
        });

        // Phase 2: a winner exists but losers are still solving — reap
        // them. One interrupt is not enough: it is a no-op on a lane
        // whose backend has not created its context yet, so keep
        // re-firing until every lane has returned. checkSat must not
        // return before then (lanes read the shared term DAG).
        if (state.doneCount < lane_count) {
            for (auto &lane : state.lanes) {
                lane->reaped = !lane->done;
                losers_reaped += lane->reaped ? 1 : 0;
            }
            while (state.doneCount < lane_count) {
                for (auto &lane : state.lanes) {
                    if (!lane->done)
                        lane->backend->interruptQuery();
                }
                state.doneCv.wait_for(lock, kReapPeriod);
            }
        }
    }

    // All lanes quiesced: their backends are exclusively ours again.
    for (size_t i = 0; i < lane_count; ++i) {
        foldNonVerdictStats(
            stats_, state.lanes[i]->backend->stats() - before[i]);
    }
    ++stats_.queries;
    stats_.portfolioCancellations += losers_reaped;

    // Disagreement oracle: contradictory definite verdicts mean some
    // strategy is unsound on this query — refuse to pick a side.
    // interruptQuery() reaches the re-check too, so a deadline or a
    // cancel stops it, and a stopped re-check answers Unknown.
    std::vector<LaneAnswer> answers;
    for (auto &lane : state.lanes)
        answers.push_back({lane->result, lane->reaped});
    bool disagree = lanesDisagree(answers, [&] {
        Solver &recheck = *state.recheck;
        SolverStats recheck_before = recheck.stats();
        SatResult truth = SatResult::Unknown;
        try {
            recheck.setTimeoutMs(timeout_ms);
            recheck.setMemoryBudgetMb(memory_mb);
            truth = recheck.checkSat(assertions);
        } catch (const std::exception &) {
        }
        foldNonVerdictStats(stats_, recheck.stats() - recheck_before);
        return truth;
    });
    for (size_t i = 0; i < lane_count; ++i)
        state.lanes[i]->result = answers[i].result;
    if (disagree) {
        ++stats_.crossLaneDisagreements;
        ++stats_.unknown;
        lastFailure_ = FailureKind::PortfolioDisagreement;
        std::string verdicts;
        for (auto &lane : state.lanes) {
            verdicts += (verdicts.empty() ? "" : ", ");
            verdicts += lane->config.name + "=";
            verdicts += lane->crashed ? "crash"
                                      : satResultName(lane->result);
        }
        lastUnknownReason_ = "portfolio disagreement: " + verdicts;
        return SatResult::Unknown;
    }

    int winner = state.winner;
    if (winner >= 0) {
        Lane &lane = *state.lanes[static_cast<size_t>(winner)];
        size_t win_slot =
            std::min(static_cast<size_t>(winner),
                     SolverStats::kPortfolioMaxLanes - 1);
        ++stats_.portfolioWins[win_slot];
        if (lane.result == SatResult::Sat) {
            ++stats_.sat;
            Assignment model;
            if (lane.backend->lastModel(&model))
                lastModel_ = std::move(model);
        } else {
            ++stats_.unsat;
        }
        return lane.result;
    }

    // No definite answer anywhere. If every lane crashed, this query is
    // a crash (the guard ladder above us absorbs it); otherwise adopt
    // the first honest lane's classification.
    bool any_alive = false;
    for (auto &lane : state.lanes)
        any_alive |= !lane->crashed;
    if (!any_alive) {
        // Count it before throwing so the query is attributed.
        ++stats_.unknown;
        ++stats_.solverCrashes;
        throw SolverCrashError("portfolio: every lane crashed");
    }
    ++stats_.unknown;
    for (auto &lane : state.lanes) {
        if (lane->crashed)
            continue;
        lastFailure_ = lane->backend->lastFailureKind();
        lastUnknownReason_ = lane->backend->lastUnknownReason();
        break;
    }
    return SatResult::Unknown;
}

} // namespace keq::smt
