#ifndef KEQ_PERFBENCH_CORPUS_WORKLOADS_H
#define KEQ_PERFBENCH_CORPUS_WORKLOADS_H

/**
 * @file
 * Generated-corpus set-up and the layer probes shared by the workloads
 * that validate the corpus (gen300-tail, gen1000-nodiv, keqd-warm).
 */

#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "src/llvmir/ir.h"

namespace perfbench {

struct Corpus
{
    std::string source;
    std::unique_ptr<keq::llvmir::Module> module;
    /** The defined functions, in module order. */
    std::vector<const keq::llvmir::Function *> functions;
    /** Median parse + verify time over the set-up repeats. */
    double parseSeconds = 0.0;
};

/**
 * Generates, renames and parses the corpus @p repeats times, recording
 * each repeat's time as one setup_s sample; returns the last one.
 */
Corpus prepareCorpus(const RunOptions &options,
                     const keq::driver::CorpusOptions &corpusOptions,
                     int repeats, Result &result);

/** Benchmark-side ISel and VC-generation calls, per function. */
struct Probes
{
    std::vector<double> isel;
    std::vector<double> vcgen;

    double iselTotal() const;
    double vcgenTotal() const;
};

/**
 * Lowers each function and generates its sync points exactly as the
 * pipeline does internally, timing both from outside: the estimate of
 * those layers' share of a validation call.
 */
Probes probeLayers(const Corpus &corpus, Trace::Lane &lane);

} // namespace perfbench

#endif // KEQ_PERFBENCH_CORPUS_WORKLOADS_H
