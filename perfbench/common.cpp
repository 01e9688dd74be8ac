#include "common.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <sys/resource.h>

#include "src/driver/corpus.h"

namespace perfbench {

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

double
cpuSeconds()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    auto seconds = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) + tv.tv_usec / 1e6;
    };
    return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

void
resetPeakRss()
{
    // "5" resets the VmHWM peak-RSS mark (Linux >= 4.0).
    std::ofstream clear("/proc/self/clear_refs");
    clear << "5";
}

double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    size_t mid = values.size() / 2;
    return values.size() % 2 == 1 ? values[mid]
                                  : (values[mid - 1] + values[mid]) / 2.0;
}

double
percentile(std::vector<double> values, double p)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    size_t rank = static_cast<size_t>(
        std::ceil(p / 100.0 * static_cast<double>(values.size())));
    return values[std::clamp<size_t>(rank, 1, values.size()) - 1];
}

double
reportablePercentile(size_t samples)
{
    for (double p : {99.9, 99.0, 90.0}) {
        if (static_cast<double>(samples) * (100.0 - p) / 100.0 >= 10.0)
            return p;
    }
    return 0.0;
}

size_t
Trace::Lane::begin(const char *name, uint64_t request)
{
    Span span;
    span.name = name;
    span.request = request;
    span.parent = open_.empty() ? -1 : static_cast<int64_t>(open_.back());
    span.start = Clock::now();
    spans_.push_back(span);
    open_.push_back(spans_.size() - 1);
    return spans_.size() - 1;
}

void
Trace::Lane::end(size_t span)
{
    spans_[span].end = Clock::now();
    if (!open_.empty() && open_.back() == span)
        open_.pop_back();
}

Trace::Lane::Lane()
{
    spans_.reserve(1 << 15);
    open_.reserve(64);
}

Trace::Trace(size_t lanes) : lanes_(lanes) {}

Trace::Mark
Trace::mark() const
{
    Mark mark;
    for (const Lane &lane : lanes_)
        mark.push_back(lane.spans().size());
    return mark;
}

std::map<std::string, Trace::Totals>
Trace::totals(const Mark &from) const
{
    auto seconds = [](const Span &span) {
        return std::chrono::duration<double>(span.end - span.start).count();
    };
    std::map<std::string, Totals> out;
    for (size_t l = 0; l < lanes_.size(); ++l) {
        const std::vector<Span> &spans = lanes_[l].spans();
        size_t first = l < from.size() ? from[l] : 0;
        std::vector<double> childSeconds(spans.size(), 0.0);
        for (size_t i = first; i < spans.size(); ++i)
            if (spans[i].parent >= 0)
                childSeconds[static_cast<size_t>(spans[i].parent)] +=
                    seconds(spans[i]);
        for (size_t i = first; i < spans.size(); ++i) {
            Totals &totals = out[spans[i].name];
            totals.seconds += seconds(spans[i]);
            totals.selfSeconds += seconds(spans[i]) - childSeconds[i];
            totals.count++;
        }
    }
    return out;
}

bool
Trace::write(const std::string &path) const
{
    std::ofstream out(path);
    if (!out)
        return false;
    Clock::time_point origin = Clock::time_point::max();
    for (const Lane &lane : lanes_)
        for (const Span &span : lane.spans())
            origin = std::min(origin, span.start);
    auto us = [&](Clock::time_point at) {
        return std::chrono::duration<double, std::micro>(at - origin)
            .count();
    };
    for (size_t l = 0; l < lanes_.size(); ++l) {
        const std::vector<Span> &spans = lanes_[l].spans();
        for (size_t i = 0; i < spans.size(); ++i) {
            char line[256];
            std::snprintf(line, sizeof line,
                          "{\"lane\": %zu, \"id\": %zu, \"parent\": %lld, "
                          "\"name\": \"%s\", \"request\": %llu, "
                          "\"start_us\": %.1f, \"end_us\": %.1f}\n",
                          l, i, static_cast<long long>(spans[i].parent),
                          spans[i].name,
                          static_cast<unsigned long long>(
                              spans[i].request),
                          us(spans[i].start), us(spans[i].end));
            out << line;
        }
    }
    return static_cast<bool>(out);
}

void
CheckCounts::add(const keq::driver::FunctionReport &report)
{
    const keq::checker::CheckStats &stats = report.verdict.stats;
    const keq::smt::SolverStats &solver = stats.solverStats;
    x86Instructions += report.x86Instructions;
    syncPoints += report.syncPointCount;
    specChars += report.specTextSize;
    points += stats.pointsChecked;
    steps += stats.symbolicSteps;
    pairs += stats.pairsExamined;
    queries += stats.solverQueries;
    rewriteResolved += solver.rewriteResolved;
    sliceResolved += solver.sliceResolved;
    cacheHits += solver.cacheHits;
    cacheMisses += solver.cacheMisses;
    incrementalReused += solver.incrementalReused;
    coldSolves += solver.coldSolves;
    escalations += solver.guardedEscalations;
    escalatedResolved += solver.escalatedResolved;
    unknown += solver.unknown;
    checkSeconds += stats.totalSeconds;
    solverSeconds += stats.solverSeconds;
}

CheckCounts &
CheckCounts::operator+=(const CheckCounts &other)
{
    x86Instructions += other.x86Instructions;
    syncPoints += other.syncPoints;
    specChars += other.specChars;
    points += other.points;
    steps += other.steps;
    pairs += other.pairs;
    queries += other.queries;
    rewriteResolved += other.rewriteResolved;
    sliceResolved += other.sliceResolved;
    cacheHits += other.cacheHits;
    cacheMisses += other.cacheMisses;
    incrementalReused += other.incrementalReused;
    coldSolves += other.coldSolves;
    escalations += other.escalations;
    escalatedResolved += other.escalatedResolved;
    unknown += other.unknown;
    checkSeconds += other.checkSeconds;
    solverSeconds += other.solverSeconds;
    return *this;
}

void
Result::wrong(const std::string &what)
{
    wrongVerdicts++;
    // Keep the report readable when a regression breaks many verdicts.
    if (problems.size() < 20)
        problems.push_back(what);
}

void
Result::record(const std::string &counter, uint64_t value)
{
    ledger[counter].push_back(value);
}

void
recordCounts(Result &result, const CheckCounts &counts)
{
    result.record("isel.x86_instructions", counts.x86Instructions);
    result.record("vcgen.sync_points", counts.syncPoints);
    result.record("vcgen.spec_chars", counts.specChars);
    result.record("keq.points", counts.points);
    result.record("keq.symbolic_steps", counts.steps);
    result.record("keq.pairs", counts.pairs);
    result.record("keq.queries", counts.queries);
    result.record("smt.rewrite_resolved", counts.rewriteResolved);
    result.record("smt.slice_resolved", counts.sliceResolved);
    result.record("smt.cache_hits", counts.cacheHits);
    result.record("smt.backend_calls", counts.backendCalls());
}

LayerReport
computeLayers(const LayerInputs &in)
{
    LayerReport result;
    auto layer = [&](const char *name, double value, const char *unit) {
        result.layers.push_back({name, value, unit});
    };
    const CheckCounts &c = in.counts;
    double iselInside = in.validateIncludesIsel ? in.iselSeconds : 0.0;
    double keqSelf = c.checkSeconds - c.solverSeconds;
    double fnOverhead =
        in.validateSeconds - c.checkSeconds - in.vcgenSeconds - iselInside;

    double busy = 0.0;
    for (double seconds : in.unitSeconds)
        busy += seconds;
    double capacity = in.concurrency * in.tracedWall;
    double idle = capacity - busy;

    std::vector<double> units = in.unitSeconds;
    std::sort(units.begin(), units.end(), std::greater<double>());
    double tail2 = 0.0;
    for (size_t i = 0; i < units.size() && i < 2; ++i)
        tail2 += units[i];

    // Worker-seconds of the pass, layer by layer. The validation call
    // covers VC generation, KEQ, the solver stack and the per-function
    // stack; ISel sits inside it or beside it.
    double accounted = in.iselSeconds + in.vcgenSeconds + keqSelf +
                       c.solverSeconds + fnOverhead + idle;
    if (in.parseInPass)
        accounted += in.parseSeconds;
    accounted += in.serviceSeconds + in.generateSeconds + in.execSeconds +
                 in.harnessSeconds;
    accounted /= in.concurrency;

    uint64_t avoided = c.rewriteResolved + c.sliceResolved + c.cacheHits;
    double avoidedFrac =
        c.queries > 0 ? static_cast<double>(avoided) / c.queries : 0.0;

    layer("llvmir.parse_s", in.parseSeconds, "s");
    layer("isel.lower_s", in.iselSeconds, "s");
    layer("vcgen.sync_s", in.vcgenSeconds, "s");
    layer("keq.self_s", keqSelf, "s");
    layer("smt.backend_s", c.solverSeconds, "s");
    layer("driver.fn_overhead_s", fnOverhead, "s");
    layer("driver.tail2_s", tail2, "s");
    layer("driver.body_s", busy - tail2, "s");
    layer("driver.idle_frac", capacity > 0 ? idle / capacity : 0.0, "ratio");
    layer("smt.avoided_frac", avoidedFrac, "ratio");
    layer("trace.overhead_frac",
          in.untracedWall > 0 ? in.tracedWall / in.untracedWall - 1.0 : 0.0,
          "ratio");
    layer("trace.accounted_frac",
          in.untracedWall > 0 ? accounted / in.untracedWall : 0.0, "ratio");
    layer("isel.x86_instructions", c.x86Instructions, "count");
    layer("vcgen.sync_points", c.syncPoints, "count");
    layer("vcgen.spec_chars", c.specChars, "count");
    layer("keq.points", c.points, "count");
    layer("keq.symbolic_steps", c.steps, "count");
    layer("keq.pairs", c.pairs, "count");
    layer("keq.queries", c.queries, "count");
    layer("smt.backend_calls", c.backendCalls(), "count");
    layer("smt.rewrite_resolved", c.rewriteResolved, "count");
    layer("smt.slice_resolved", c.sliceResolved, "count");
    layer("smt.cache_hits", c.cacheHits, "count");
    layer("smt.model_hits", in.modelHits, "count");
    layer("smt.incremental_reused", c.incrementalReused, "count");
    layer("smt.cold_solves", c.coldSolves, "count");
    layer("smt.escalations", c.escalations, "count");
    layer("smt.escalated_resolved", c.escalatedResolved, "count");
    layer("smt.unknown", c.unknown, "count");
    layer("service.overhead_s", in.serviceSeconds, "s");
    layer("service.hit_rate", in.serviceHitRate, "ratio");
    layer("service.busy_retries", in.busyRetries, "count");
    layer("service.dedup_hits", in.dedupHits, "count");
    layer("fuzz.generate_s", in.generateSeconds, "s");
    layer("fuzz.exec_s", in.execSeconds, "s");
    layer("fuzz.check_s", in.pairCheckSeconds, "s");
    layer("fuzz.mutants_applied", in.mutantsApplied, "count");
    layer("fuzz.mutants_killed", in.mutantsKilled, "count");

    char line[200];
    std::snprintf(line, sizeof line,
                  "accounting: layers sum to %.4f s per worker vs untraced "
                  "wall %.4f s (tolerance 20%%): %s",
                  accounted, in.untracedWall,
                  std::fabs(accounted / in.untracedWall - 1.0) <= 0.20
                      ? "ok"
                      : "OUTSIDE");
    result.notes.push_back(line);
    std::snprintf(line, sizeof line,
                  "smt.avoided_frac base: %llu queries (%llu avoided)",
                  static_cast<unsigned long long>(c.queries),
                  static_cast<unsigned long long>(avoided));
    result.notes.push_back(line);
    return result;
}

void
takeLayers(Result &result, const std::vector<LayerReport> &passes)
{
    if (passes.empty())
        return;
    result.layers = passes.back().layers;
    for (size_t i = 0; i < result.layers.size(); ++i) {
        std::vector<double> values;
        for (const LayerReport &pass : passes)
            values.push_back(pass.layers[i].value);
        result.layers[i].value = median(values);
    }
    result.notes.insert(result.notes.end(), passes.back().notes.begin(),
                        passes.back().notes.end());
}

keq::driver::CorpusOptions
corpusOptions(const RunOptions &options, size_t functions, bool division)
{
    keq::driver::CorpusOptions corpus;
    corpus.seed = options.inputSeed != 0 ? options.inputSeed : 7;
    corpus.functionCount = functions;
    corpus.includeDivision = division;
    return corpus;
}

std::string
corpusSource(const keq::driver::CorpusOptions &corpus, uint64_t runSeed)
{
    std::string source = keq::driver::generateCorpusSource(corpus);
    std::string renamed = "@s" + std::to_string(runSeed) + "_fn";
    std::string out;
    out.reserve(source.size() + source.size() / 16);
    size_t pos = 0;
    for (size_t hit; (hit = source.find("@fn", pos)) != std::string::npos;
         pos = hit + 3) {
        out.append(source, pos, hit - pos);
        out += renamed;
    }
    out.append(source, pos);
    return out;
}

bool
validated(const keq::driver::FunctionReport &report)
{
    return report.outcome == keq::driver::Outcome::Succeeded &&
           report.verdict.validated();
}

bool
failedAttempt(const keq::driver::FunctionReport &report)
{
    return report.outcome == keq::driver::Outcome::Timeout ||
           report.outcome == keq::driver::Outcome::OutOfMemory ||
           report.verdict.stats.solverStats.unknown > 0;
}

} // namespace perfbench
