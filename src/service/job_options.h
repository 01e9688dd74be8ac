#ifndef KEQ_SERVICE_JOB_OPTIONS_H
#define KEQ_SERVICE_JOB_OPTIONS_H

/**
 * @file
 * Mapping between driver::PipelineOptions and the wire JobOptionsFrame.
 *
 * A job carries exactly the knobs that change *verdicts* (canonical
 * summaries): ISel toggles and reintroducible bugs, checker options,
 * liveness precision, budgets and timeouts. Execution policy — jobs,
 * caching, sandboxing, the solver lane — deliberately does NOT travel:
 * the daemon owns scheduling and isolation so every client shares the
 * warm pools, and verdicts are invariant under those choices anyway
 * (the byte-identity tests across serial/parallel/sandboxed stacks are
 * what license this split).
 *
 * encode/decode are exact inverses on the carried subset; the daemon
 * keys its Pipeline pool by jobOptionsKey so two clients with the same
 * knobs share one warm Pipeline (and its TermFactory-independent
 * query cache).
 */

#include <string>

#include "src/driver/pipeline.h"
#include "src/smt/wire.h"

namespace keq::service {

/** Extracts the wire-travelling subset of @p options. */
smt::wire::JobOptionsFrame
encodeJobOptions(const driver::PipelineOptions &options);

/** Rebuilds PipelineOptions from a frame (non-carried knobs default). */
driver::PipelineOptions
decodeJobOptions(const smt::wire::JobOptionsFrame &frame);

/** Stable identity of a frame; the daemon's Pipeline-pool key. */
std::string jobOptionsKey(const smt::wire::JobOptionsFrame &frame);

} // namespace keq::service

#endif // KEQ_SERVICE_JOB_OPTIONS_H
