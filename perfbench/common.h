#ifndef KEQ_PERFBENCH_COMMON_H
#define KEQ_PERFBENCH_COMMON_H

/**
 * @file
 * Shared plumbing of the repository benchmark: run options, process
 * resource probes, order statistics, the in-memory span recorder and the
 * result every workload fills in.
 *
 * Spans are recorded only from the benchmark's own files, around calls
 * into the keq libraries; nothing inside src/ is instrumented.
 */

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/driver/corpus.h"
#include "src/driver/pipeline.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point start);

/** Process CPU time (user + system, all threads) in seconds. */
double cpuSeconds();

/** Resets the kernel's peak-RSS mark so the next read covers only what
 *  follows (falls back to the whole-process peak when unsupported). */
void resetPeakRss();

/** Peak resident set size since the last reset, in MiB. */
double peakRssMb();

double median(std::vector<double> values);

/** Nearest-rank percentile, @p p in [0, 100]. */
double percentile(std::vector<double> values, double p);

/**
 * The highest of p99.9 / p99 / p90 that leaves at least ten samples
 * beyond it; 0 when even p90 does not (fewer than 100 samples).
 */
double reportablePercentile(size_t samples);

struct RunOptions
{
    std::string workload;
    /** Run seed (--seed): varies the inputs' names and the clients'
     *  starting offsets, never the amount of work. */
    uint64_t seed = 0;
    /** Generator seed of the workload's input family; 0 = default. */
    uint64_t inputSeed = 0;
    double seconds = 10.0;
    bool trace = false;
    /** Directory for the daemon's socket and the trace file. */
    std::string workdir = ".";
    /** Where the traced run writes its spans (JSON lines). */
    std::string traceOut;
};

/**
 * In-memory span recorder. Each thread that records owns one Lane, so
 * recording never locks; lanes are only read after their threads have
 * been joined.
 */
class Trace
{
  public:
    struct Span
    {
        const char *name = "";
        uint64_t request = 0;
        /** Index of the enclosing span in the same lane, or -1. */
        int64_t parent = -1;
        Clock::time_point start;
        Clock::time_point end;
    };

    class Lane
    {
      public:
        Lane();
        size_t begin(const char *name, uint64_t request);
        void end(size_t span);
        const std::vector<Span> &spans() const { return spans_; }

      private:
        std::vector<Span> spans_;
        std::vector<size_t> open_;
    };

    /** Per-name sums over all lanes. */
    struct Totals
    {
        double seconds = 0.0;
        /** seconds minus the time covered by child spans. */
        double selfSeconds = 0.0;
        uint64_t count = 0;
    };

    /** Span count of every lane: where a pass's spans begin. */
    using Mark = std::vector<size_t>;

    /**
     * Lanes reserve their span storage up front, so recording never
     * frees a large buffer mid-run (a freed large block moves glibc's
     * mmap threshold and with it the cost of the program's own
     * allocations).
     */
    explicit Trace(size_t lanes = 1);

    Lane &lane(size_t index) { return lanes_.at(index); }
    Mark mark() const;
    /** Per-name sums over the spans recorded since @p from. */
    std::map<std::string, Totals> totals(const Mark &from) const;
    /** Writes every span as one JSON object per line. */
    bool write(const std::string &path) const;

  private:
    std::vector<Lane> lanes_;
};

/** RAII span; a null lane (untraced pass) records nothing. */
class ScopedSpan
{
  public:
    ScopedSpan(Trace::Lane *lane, const char *name, uint64_t request = 0)
        : lane_(lane), index_(lane ? lane->begin(name, request) : 0)
    {
    }
    ~ScopedSpan()
    {
        if (lane_ != nullptr)
            lane_->end(index_);
    }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    Trace::Lane *lane_;
    size_t index_;
};

/** Counters a workload accumulates from FunctionReports. */
struct CheckCounts
{
    uint64_t x86Instructions = 0;
    uint64_t syncPoints = 0;
    uint64_t specChars = 0;
    uint64_t points = 0;
    uint64_t steps = 0;
    uint64_t pairs = 0;
    uint64_t queries = 0;
    uint64_t rewriteResolved = 0;
    uint64_t sliceResolved = 0;
    uint64_t cacheHits = 0;
    uint64_t cacheMisses = 0;
    uint64_t incrementalReused = 0;
    uint64_t coldSolves = 0;
    uint64_t escalations = 0;
    uint64_t escalatedResolved = 0;
    uint64_t unknown = 0;
    /** Seconds inside the checker (CheckStats::totalSeconds). */
    double checkSeconds = 0.0;
    /** Seconds in backend solvers (CheckStats::solverSeconds); cache
     *  hits and the rewrite/slice stages add none. */
    double solverSeconds = 0.0;

    void add(const keq::driver::FunctionReport &report);
    CheckCounts &operator+=(const CheckCounts &other);
    /** Queries that reached a backend solver (no stage answered). */
    uint64_t backendCalls() const
    {
        return queries - rewriteResolved - sliceResolved - cacheHits;
    }
};

/** Everything one run of one workload produced. */
struct Result
{
    // End-to-end samples, one per timed pass (setup: one per set-up).
    std::vector<double> wallS;
    std::vector<double> cpuS;
    std::vector<double> rssMb;
    std::vector<double> setupS;
    /** Work units (functions, jobs, programs) per timed pass. */
    uint64_t unitsPerPass = 0;
    /** Per-call latencies in ms, pooled over passes (benchmark-timed). */
    std::vector<double> latencyMs;

    uint64_t attempted = 0;
    uint64_t failed = 0;
    uint64_t wrongVerdicts = 0;
    /** Human-readable known-answer violations. */
    std::vector<std::string> problems;

    /** Exact-count ledger: counter name -> value of each pass. */
    std::map<std::string, std::vector<uint64_t>> ledger;

    /** Per-layer metrics (traced run only), in print order. */
    struct Layer
    {
        std::string name;
        double value = 0.0;
        std::string unit;
    };
    std::vector<Layer> layers;
    /** Workload-specific report lines (printed, not in the JSON). */
    std::vector<std::string> notes;

    void wrong(const std::string &what);
    void record(const std::string &counter, uint64_t value);
};

/** Records the counters every workload shares into the ledger. */
void recordCounts(Result &result, const CheckCounts &counts);

/**
 * Inputs of the per-layer breakdown of one traced pass. Times are
 * worker-seconds (summed over the threads doing the work); the pass's
 * worker-time is concurrency x tracedWall, and every second of it lands
 * in exactly one layer (ISel, VC generation, KEQ, the solver stack, the
 * per-function stack, a workload's own outer layers, or idle).
 */
struct LayerInputs
{
    CheckCounts counts;
    /** Parse time; counted in the pass only when parseInPass. */
    double parseSeconds = 0.0;
    bool parseInPass = false;
    /** Benchmark-side ISel / VC-generation calls replicating the ones
     *  the pipeline makes internally (the layers' cost estimate). */
    double iselSeconds = 0.0;
    double vcgenSeconds = 0.0;
    /** Outside-timed seconds of the validation calls, and whether
     *  those calls include ISel (validateFunction) or not
     *  (validateFunctionPair, runParallel's per-function timer). */
    double validateSeconds = 0.0;
    bool validateIncludesIsel = true;
    /** End-to-end seconds of each unit (function, job, program). */
    std::vector<double> unitSeconds;
    /** Wall time of the traced pass and of the untraced reference. */
    double tracedWall = 0.0;
    double untracedWall = 0.0;
    unsigned concurrency = 1;
    uint64_t modelHits = 0;
    // Layers of the daemon and fuzz workloads (zero elsewhere).
    /** Round trip minus the server-side estimate (wire, queue, ...). */
    double serviceSeconds = 0.0;
    double generateSeconds = 0.0;
    /** Concrete-interpreter comparison (compareExecutions). */
    double execSeconds = 0.0;
    /** validateFunctionPair as a whole (already split into layers). */
    double pairCheckSeconds = 0.0;
    /** The fuzz replay's own glue between the calls it times. */
    double harnessSeconds = 0.0;
    double serviceHitRate = 0.0;
    uint64_t busyRetries = 0;
    uint64_t dedupHits = 0;
    uint64_t mutantsApplied = 0;
    uint64_t mutantsKilled = 0;
};

/** Per-layer metrics and report lines of one traced pass. */
struct LayerReport
{
    std::vector<Result::Layer> layers;
    std::vector<std::string> notes;
};
LayerReport computeLayers(const LayerInputs &in);

/** Stores the per-layer medians over the traced passes in @p result. */
void takeLayers(Result &result, const std::vector<LayerReport> &passes);

/** Timed passes a run makes at least: a traced run needs its untraced
 *  reference pass plus one traced pass. */
inline size_t
minimumPasses(const RunOptions &options)
{
    return options.trace ? 2 : 1;
}

/**
 * Whether a run starts another timed pass after @p done passes that took
 * @p elapsed seconds together. Past the minimum, a pass starts only when
 * it should end less than half a pass after RunOptions::seconds, so a run
 * measures its seconds to within about half a pass either way.
 */
inline bool
morePasses(const RunOptions &options, size_t done, double elapsed)
{
    if (done < minimumPasses(options))
        return true;
    return elapsed + 0.5 * elapsed / static_cast<double>(done) <
           options.seconds;
}

/** Generated-corpus helpers shared by the corpus workloads. */
keq::driver::CorpusOptions corpusOptions(const RunOptions &options,
                                         size_t functions, bool division);
/**
 * The corpus text with every generated function renamed after the run
 * seed (@fnN -> @sSEED_fnN): different bytes per seed, identical work.
 */
std::string corpusSource(const keq::driver::CorpusOptions &corpus,
                         uint64_t runSeed);

/** True when the report is a validated (known-answer) verdict. */
bool validated(const keq::driver::FunctionReport &report);
/** True when the report is a failed attempt (timeout, OOM, unknown). */
bool failedAttempt(const keq::driver::FunctionReport &report);

// Workloads (corpus_workloads.cpp, daemon_workload.cpp,
// fuzz_workload.cpp). Each runs its set-up, then timed passes for about
// RunOptions::seconds (see morePasses).
Result runGen300Tail(const RunOptions &options);
Result runGen1000NoDiv(const RunOptions &options);
Result runKeqdWarm(const RunOptions &options);
Result runFuzzCampaign(const RunOptions &options);

} // namespace perfbench

#endif // KEQ_PERFBENCH_COMMON_H
