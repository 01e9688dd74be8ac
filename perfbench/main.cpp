/**
 * @file
 * keq_perfbench: runs one benchmark workload and prints its metrics.
 *
 *   keq_perfbench --workload NAME --seed N --seconds S --trace 0|1
 *                 [--input-seed N] [--workdir DIR]
 *
 * Report lines come first (every metric by name and unit, the known-
 * answer checks, the exact-count ledger); the last line is one JSON
 * object with the keys correct, attempted, failed and metrics. With
 * --trace 0 the metrics are the end-to-end ones, with --trace 1 the
 * per-layer ones. The exit code is 1 when a verdict contradicts its
 * known answer, 2 on bad usage or an error.
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <malloc.h>
#include <string>

#include "common.h"

namespace {

using namespace perfbench;

struct Workload
{
    const char *name;
    Result (*run)(const RunOptions &);
};

constexpr Workload kWorkloads[] = {
    {"gen300-tail", runGen300Tail},
    {"gen1000-nodiv", runGen1000NoDiv},
    {"keqd-warm", runKeqdWarm},
    {"fuzz-campaign", runFuzzCampaign},
};

int
usage(const char *why)
{
    std::fprintf(stderr,
                 "keq_perfbench: %s\nusage: keq_perfbench --workload "
                 "NAME --seed N --seconds S --trace 0|1 [--input-seed N] "
                 "[--workdir DIR]\nworkloads:",
                 why);
    for (const Workload &workload : kWorkloads)
        std::fprintf(stderr, " %s", workload.name);
    std::fprintf(stderr, "\n");
    return 2;
}

bool
parseNumber(const char *text, double &out)
{
    char *end = nullptr;
    out = std::strtod(text, &end);
    return end != text && *end == '\0' && std::isfinite(out) && out >= 0;
}

/** Prints "name median pP n" for a timing sample set. */
void
printTiming(const char *name, const char *unit,
            const std::vector<double> &values)
{
    double p = reportablePercentile(values.size());
    if (p > 0) {
        std::printf("metric %-14s median %.6g %s, p%g %.6g %s, n=%zu\n", name,
                    median(values), unit, p, percentile(values, p), unit,
                    values.size());
    } else {
        std::printf("metric %-14s median %.6g %s, n=%zu\n", name,
                    median(values), unit, values.size());
    }
}

struct JsonMetric
{
    std::string name;
    double value;
    std::string unit;
};

std::string
jsonLine(bool correct, const Result &result,
         const std::vector<JsonMetric> &metrics)
{
    std::string out = "{\"correct\": ";
    out += correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(result.attempted);
    out += ", \"failed\": " + std::to_string(result.failed);
    out += ", \"metrics\": {";
    for (size_t i = 0; i < metrics.size(); ++i) {
        char value[64];
        std::snprintf(value, sizeof value, "%.9g", metrics[i].value);
        out += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
               value + ", \"unit\": \"" + metrics[i].unit + "\"}";
    }
    out += "}}";
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    RunOptions options;
    bool haveSeed = false, haveSeconds = false, haveTrace = false;
    std::string workdir = ".";
    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        if (i + 1 >= argc)
            return usage(("missing value for " + flag).c_str());
        const char *value = argv[++i];
        double number = 0;
        if (flag == "--workload") {
            options.workload = value;
        } else if (flag == "--workdir") {
            workdir = value;
        } else if (!parseNumber(value, number)) {
            return usage(("bad value for " + flag).c_str());
        } else if (flag == "--seed") {
            options.seed = static_cast<uint64_t>(number);
            haveSeed = true;
        } else if (flag == "--input-seed") {
            options.inputSeed = static_cast<uint64_t>(number);
        } else if (flag == "--seconds") {
            options.seconds = number;
            haveSeconds = true;
        } else if (flag == "--trace") {
            if (number != 0 && number != 1)
                return usage("--trace takes 0 or 1");
            options.trace = number == 1;
            haveTrace = true;
        } else {
            return usage(("unknown flag " + flag).c_str());
        }
    }
    const Workload *workload = nullptr;
    for (const Workload &candidate : kWorkloads)
        if (options.workload == candidate.name)
            workload = &candidate;
    if (workload == nullptr)
        return usage(("unknown workload '" + options.workload + "'").c_str());
    if (!haveSeed || !haveSeconds || !haveTrace)
        return usage("--seed, --seconds and --trace are required");
    options.workdir = workdir;
    if (options.trace)
        options.traceOut = workdir + "/trace-" + options.workload + ".jsonl";

    // Pin glibc's malloc thresholds at the top of the range its dynamic
    // rule moves them in. Left dynamic, they rise only once the process
    // frees a large mapped block, so whether a pass maps and unmaps its
    // solver memory depends on what ran before it. That alone moved
    // gen300-tail passes between 2.6 and 4 s.
    mallopt(M_MMAP_THRESHOLD, 32 << 20);
    mallopt(M_TRIM_THRESHOLD, 64 << 20);

    Result result;
    try {
        result = workload->run(options);
    } catch (const std::exception &error) {
        std::fprintf(stderr, "keq_perfbench: %s: %s\n", workload->name,
                     error.what());
        return 2;
    }

    std::printf("workload %s seed %llu trace %d\n", workload->name,
                static_cast<unsigned long long>(options.seed),
                options.trace ? 1 : 0);
    for (const std::string &problem : result.problems)
        std::printf("WRONG %s\n", problem.c_str());
    std::printf("metric %-14s %llu count\n", "wrong_verdicts",
                static_cast<unsigned long long>(result.wrongVerdicts));
    std::printf("metric %-14s %.6g ratio (%llu of %llu attempts)\n",
                "failed_frac",
                result.attempted
                    ? static_cast<double>(result.failed) / result.attempted
                    : 0.0,
                static_cast<unsigned long long>(result.failed),
                static_cast<unsigned long long>(result.attempted));
    for (const auto &[counter, values] : result.ledger) {
        bool exact = true;
        for (uint64_t value : values)
            exact = exact && value == values.front();
        std::printf("ledger %-24s %s %llu over %zu passes\n",
                    counter.c_str(), exact ? "exact " : "varies",
                    static_cast<unsigned long long>(values.front()),
                    values.size());
    }
    for (const std::string &note : result.notes)
        std::printf("%s\n", note.c_str());

    std::vector<JsonMetric> metrics;
    if (options.trace) {
        for (const Result::Layer &layer : result.layers) {
            std::printf("layer %-24s %12.6g %s\n", layer.name.c_str(),
                        layer.value, layer.unit.c_str());
            metrics.push_back({layer.name, layer.value, layer.unit});
        }
    } else {
        std::vector<double> rate;
        for (double wall : result.wallS)
            rate.push_back(wall > 0 ? result.unitsPerPass / wall : 0.0);
        printTiming("wall_s", "s", result.wallS);
        std::printf("samples wall_s");
        for (double wall : result.wallS)
            std::printf(" %.4f", wall);
        std::printf("\n");
        printTiming("fn_per_s", "1/s", rate);
        printTiming("cpu_s", "s", result.cpuS);
        printTiming("peak_rss_mb", "MiB", result.rssMb);
        printTiming("setup_s", "s", result.setupS);
        if (!result.latencyMs.empty()) {
            printTiming("fn_p50_ms", "ms", result.latencyMs);
            double p99 = percentile(result.latencyMs, 99.0);
            if (result.latencyMs.size() >= 1000)
                std::printf("metric %-14s %.6g ms (n=%zu)\n", "fn_p99_ms",
                            p99, result.latencyMs.size());
        }
        metrics = {
            {"wall_s", median(result.wallS), "s"},
            {"fn_per_s", median(rate), "1/s"},
            {"cpu_s", median(result.cpuS), "s"},
            {"peak_rss_mb", median(result.rssMb), "MiB"},
            {"setup_s", median(result.setupS), "s"},
        };
    }

    bool correct = result.wrongVerdicts == 0;
    std::printf("%s\n", jsonLine(correct, result, metrics).c_str());
    std::fflush(stdout);
    return correct ? 0 : 1;
}
