/**
 * @file
 * Experiments E2 and E3 — reproduce Figure 7: "Distributions of
 * validation time and code size" (paper Section 5.1).
 *
 * The paper reports a heavily right-skewed validation-time distribution
 * (mean 150 s, median 0.8 s at their scale) and a code-size histogram
 * dominated by small functions. This harness validates the synthetic
 * corpus without budgets and prints both histograms plus the summary
 * statistics; the *shape* (median << mean, long right tail) is the
 * reproduction target — absolute numbers are hardware- and scale-bound.
 *
 * Scale with KEQ_FIG7_FUNCTIONS.
 */

#include <cstdio>
#include <iostream>

#include "bench/bench_common.h"
#include "src/driver/corpus.h"
#include "src/driver/pipeline.h"
#include "src/support/histogram.h"

int
main()
{
    using namespace keq;

    size_t function_count = bench::envSize("KEQ_FIG7_FUNCTIONS", 600);
    driver::CorpusOptions copts;
    copts.functionCount = function_count;
    copts.seed = 0x716; // fixed corpus

    std::cout << "=== E2+E3 / Figure 7: distributions ===\n";
    std::cout << "corpus: " << function_count
              << " functions (seed " << copts.seed << ")\n\n";

    driver::ModuleReport report =
        driver::validateSource(driver::generateCorpusSource(copts), {});

    support::Histogram time_hist =
        support::Histogram::logSpaced(0.0001, 4.0, 12);
    support::Histogram size_hist =
        support::Histogram::logSpaced(1.0, 2.0, 12);
    const driver::FunctionReport *slowest = nullptr;
    for (const driver::FunctionReport &fn : report.functions) {
        if (fn.outcome == driver::Outcome::Unsupported)
            continue;
        if (slowest == nullptr || fn.seconds > slowest->seconds)
            slowest = &fn;
        time_hist.add(fn.seconds);
        size_hist.add(static_cast<double>(fn.llvmInstructions));
    }

    std::cout << "--- validation time per function ---\n";
    std::cout << time_hist.render("s");
    std::printf("mean %.3f s, median %.3f s, p95 %.3f s, max %.3f s\n",
                time_hist.mean(), time_hist.median(),
                time_hist.percentile(95), time_hist.max());
    if (slowest != nullptr)
        std::printf("max set by %s\n", slowest->function.c_str());
    std::printf("(paper at their scale: mean 150 s, median 0.8 s — the "
                "reproduction target is median << mean with a long "
                "right tail: ratio here %.0fx)\n\n",
                time_hist.mean() / std::max(1e-9, time_hist.median()));

    std::cout << "--- code size (LLVM instructions) per function ---\n";
    std::cout << size_hist.render(" insts");
    std::printf("mean %.1f, median %.1f, max %.0f instructions\n",
                size_hist.mean(), size_hist.median(), size_hist.max());
    return 0;
}
