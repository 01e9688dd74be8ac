/**
 * @file
 * The two generated-corpus workloads that drive driver::Pipeline
 * directly: gen300-tail (cold, parallel, floored by its two slowest
 * functions) and gen1000-nodiv (cold, serial, one benchmark-timed
 * validateFunction call per function).
 */

#include <algorithm>
#include <cstdio>
#include <memory>

#include "common.h"
#include "corpus_workloads.h"
#include "src/llvmir/parser.h"
#include "src/llvmir/verifier.h"
#include "src/support/thread_pool.h"

namespace perfbench {

using keq::driver::FunctionReport;
using keq::driver::Pipeline;

namespace {

/** Set-up is cheap here, so it repeats often enough for a steady median. */
constexpr int kSetupRepeats = 41;

/** Counts, stats and verdict checks of one pass over the corpus. */
void
checkReports(Result &result, const Corpus &corpus,
             const std::vector<FunctionReport> &reports, CheckCounts &counts)
{
    result.attempted += reports.size();
    for (size_t i = 0; i < reports.size(); ++i) {
        const FunctionReport &report = reports[i];
        counts.add(report);
        if (report.function != corpus.functions[i]->name) {
            result.wrong("report " + std::to_string(i) + " names " +
                         report.function);
        } else if (failedAttempt(report)) {
            result.failed++;
        } else if (!validated(report)) {
            result.wrong(report.function + ": " +
                         keq::driver::outcomeName(report.outcome) + " (" +
                         report.detail + ")");
        }
    }
}

} // namespace

Corpus
prepareCorpus(const RunOptions &options,
              const keq::driver::CorpusOptions &corpusOptions, int repeats,
              Result &result)
{
    Corpus corpus;
    std::vector<double> parse;
    for (int i = 0; i < repeats; ++i) {
        Clock::time_point start = Clock::now();
        corpus.source = corpusSource(corpusOptions, options.seed);
        Clock::time_point parsed = Clock::now();
        corpus.module = std::make_unique<keq::llvmir::Module>(
            keq::llvmir::parseModule(corpus.source));
        keq::llvmir::verifyModuleOrThrow(*corpus.module);
        parse.push_back(secondsSince(parsed));
        result.setupS.push_back(secondsSince(start));
    }
    corpus.parseSeconds = median(parse);
    corpus.functions.clear();
    for (const keq::llvmir::Function &fn : corpus.module->functions)
        if (!fn.isDeclaration())
            corpus.functions.push_back(&fn);
    return corpus;
}

Probes
probeLayers(const Corpus &corpus, Trace::Lane &lane)
{
    keq::driver::PipelineOptions defaults;
    Probes probes;
    for (size_t i = 0; i < corpus.functions.size(); ++i) {
        const keq::llvmir::Function &fn = *corpus.functions[i];
        keq::isel::FunctionHints hints;
        keq::vx86::MFunction mfn;
        Clock::time_point start = Clock::now();
        {
            ScopedSpan span(&lane, "isel.lowerFunction", i);
            mfn = keq::isel::lowerFunction(*corpus.module, fn,
                                           defaults.isel, hints);
        }
        Clock::time_point lowered = Clock::now();
        {
            ScopedSpan span(&lane, "vcgen.generateSyncPoints", i);
            keq::vcgen::generateSyncPoints(fn, mfn, hints, defaults.vc);
        }
        probes.isel.push_back(
            std::chrono::duration<double>(lowered - start).count());
        probes.vcgen.push_back(secondsSince(lowered));
    }
    return probes;
}

double
Probes::iselTotal() const
{
    double total = 0.0;
    for (double seconds : isel)
        total += seconds;
    return total;
}

double
Probes::vcgenTotal() const
{
    double total = 0.0;
    for (double seconds : vcgen)
        total += seconds;
    return total;
}

namespace {

/**
 * Adds the probe estimates to each traced pass and computes its layers.
 * The probes run after every timed pass, so their allocations cannot
 * change the allocator state a timed pass starts from.
 */
void
finishLayers(Result &result, const RunOptions &options, const Corpus &corpus,
             Trace &trace, std::vector<LayerInputs> passes)
{
    if (passes.empty())
        return;
    Probes probes = probeLayers(corpus, trace.lane(0));
    std::vector<LayerReport> reports;
    for (LayerInputs &in : passes) {
        in.parseSeconds = corpus.parseSeconds;
        in.iselSeconds = probes.iselTotal();
        in.vcgenSeconds = probes.vcgenTotal();
        if (!in.validateIncludesIsel)
            for (size_t i = 0; i < in.unitSeconds.size(); ++i)
                in.unitSeconds[i] += probes.isel[i];
        reports.push_back(computeLayers(in));
    }
    takeLayers(result, reports);
    if (!options.traceOut.empty())
        trace.write(options.traceOut);
}

} // namespace

Result
runGen300Tail(const RunOptions &options)
{
    Result result;
    Corpus corpus =
        prepareCorpus(options, corpusOptions(options, 300, true),
                      kSetupRepeats, result);
    unsigned jobs =
        std::min(4u, keq::support::ThreadPool::hardwareThreads());
    result.unitsPerPass = corpus.functions.size();

    Trace trace;
    std::vector<LayerInputs> tracedPasses;
    double untracedWall = 0.0;
    Clock::time_point begin = Clock::now();
    for (size_t pass = 0;
         morePasses(options, pass, secondsSince(begin)); ++pass) {
        // A traced run times one untraced pass first, as the reference
        // its layers must account for.
        bool traced = options.trace && pass > 0;
        keq::driver::ExecutionOptions exec;
        exec.jobs = jobs;
        Pipeline pipeline({}, exec);
        resetPeakRss();
        double cpu = cpuSeconds();
        Clock::time_point start = Clock::now();
        keq::driver::ModuleReport report;
        {
            ScopedSpan span(traced ? &trace.lane(0) : nullptr,
                            "driver.runParallel", pass);
            report = pipeline.runParallel(*corpus.module);
        }
        double wall = secondsSince(start);
        double cpuUsed = cpuSeconds() - cpu;
        double rss = peakRssMb();
        CheckCounts counts;
        checkReports(result, corpus, report.functions, counts);
        recordCounts(result, counts);
        result.record("smt.model_hits", report.cacheStats.modelHits);

        if (options.trace && pass == 0) {
            untracedWall = wall;
            continue;
        }
        result.wallS.push_back(wall);
        result.cpuS.push_back(cpuUsed);
        result.rssMb.push_back(rss);
        if (!traced)
            continue;

        LayerInputs in;
        in.counts = counts;
        in.validateIncludesIsel = false; // runParallel times after ISel
        for (const FunctionReport &function : report.functions) {
            in.validateSeconds += function.seconds;
            in.unitSeconds.push_back(function.seconds);
        }
        in.tracedWall = wall;
        in.untracedWall = untracedWall;
        in.concurrency = std::min<unsigned>(
            jobs, static_cast<unsigned>(corpus.functions.size()));
        in.modelHits = report.cacheStats.modelHits;
        tracedPasses.push_back(std::move(in));
    }
    finishLayers(result, options, corpus, trace, std::move(tracedPasses));
    return result;
}

Result
runGen1000NoDiv(const RunOptions &options)
{
    Result result;
    Corpus corpus =
        prepareCorpus(options, corpusOptions(options, 1000, false),
                      kSetupRepeats, result);
    result.unitsPerPass = corpus.functions.size();

    Trace trace;
    std::vector<LayerInputs> tracedPasses;
    double untracedWall = 0.0;
    Clock::time_point begin = Clock::now();
    for (size_t pass = 0;
         morePasses(options, pass, secondsSince(begin)); ++pass) {
        bool traced = options.trace && pass > 0;
        Trace::Lane *lane = traced ? &trace.lane(0) : nullptr;
        Pipeline pipeline;
        std::vector<FunctionReport> reports;
        reports.reserve(corpus.functions.size());
        std::vector<double> calls;
        calls.reserve(corpus.functions.size());
        resetPeakRss();
        double cpu = cpuSeconds();
        Clock::time_point start = Clock::now();
        for (size_t i = 0; i < corpus.functions.size(); ++i) {
            ScopedSpan span(lane, "driver.validateFunction", i);
            Clock::time_point called = Clock::now();
            reports.push_back(pipeline.validateFunction(
                *corpus.module, *corpus.functions[i]));
            calls.push_back(secondsSince(called));
        }
        double wall = secondsSince(start);
        double cpuUsed = cpuSeconds() - cpu;
        double rss = peakRssMb();
        CheckCounts counts;
        checkReports(result, corpus, reports, counts);
        recordCounts(result, counts);
        uint64_t modelHits = pipeline.cache()->stats().modelHits;
        result.record("smt.model_hits", modelHits);

        if (options.trace && pass == 0) {
            untracedWall = wall;
            continue;
        }
        result.wallS.push_back(wall);
        result.cpuS.push_back(cpuUsed);
        result.rssMb.push_back(rss);
        for (double seconds : calls)
            result.latencyMs.push_back(seconds * 1000.0);
        if (!traced)
            continue;

        LayerInputs in;
        in.counts = counts;
        for (double seconds : calls)
            in.validateSeconds += seconds;
        in.unitSeconds = std::move(calls);
        in.tracedWall = wall;
        in.untracedWall = untracedWall;
        in.modelHits = modelHits;
        tracedPasses.push_back(std::move(in));
    }
    finishLayers(result, options, corpus, trace, std::move(tracedPasses));
    return result;
}

} // namespace perfbench
