#ifndef KEQ_SUPPORT_FAILURE_H
#define KEQ_SUPPORT_FAILURE_H

/**
 * @file
 * Structured failure taxonomy for the validation pipeline.
 *
 * The paper's evaluation (Section 6) distinguishes "not equivalent" from
 * "could not decide": solver timeouts and Unknown results are expected
 * outcomes on real ISel corpora, not programming errors. This enum is the
 * single classification every layer agrees on — the guarded solver stamps
 * one on each failed query, the checker folds it into the Verdict, the
 * pipeline journals it into checkpoints, and keqc/keq-fuzz report it —
 * replacing the stringly-typed detail messages that previously carried
 * this information.
 *
 * It lives in namespace keq (not keq::smt or keq::driver) because it is
 * shared vocabulary across the whole stack, and in src/support because
 * that is the bottom layer everything already links against.
 */

namespace keq {

/** Why a validation instance failed to produce a definite verdict. */
enum class FailureKind
{
    None,          ///< No failure; the verdict is definite.
    Timeout,       ///< Wall-clock or solver deadline exhausted.
    MemoryBudget,  ///< Term-node or solver memory budget exhausted.
    SolverUnknown, ///< Solver answered Unknown for a non-resource reason.
    SolverCrash,   ///< Solver threw/crashed even on the last rung.
    Cancelled,     ///< Cooperative cancellation (SIGINT, shutdown).

    // Process-isolation failures (smt::SandboxSolver). A sandboxed
    // worker that dies takes exactly one in-flight query with it; the
    // supervisor classifies the death from the waitpid status (and the
    // worker's last heartbeat) so operators can tell a segfaulting
    // query from one the kernel OOM-killed.
    WorkerKilled,  ///< Worker process died (signal or abnormal exit).
    WorkerOom,     ///< Worker died breaching its hard memory cap.

    // Trust-but-verify failure (smt::CachingSolver audits). A warm
    // cached verdict — typically preloaded from a month-old verdict
    // journal — was independently re-checked (Sat via model replay,
    // Unsat via a pristine solver) and the recheck *contradicted* it.
    // The entry is quarantined and the query re-solved fresh; this
    // kind exists so operators can tell a rotten cache entry from a
    // solver bug in the daemon's logs.
    AuditMismatch, ///< cached verdict contradicted by an audit recheck
};

/** Stable lower-case name, e.g. for --stats and checkpoint records. */
const char *failureKindName(FailureKind kind);

/**
 * Inverse of failureKindName. Returns false (leaving @p out untouched)
 * when @p name is not a known kind — checkpoint loaders treat that as a
 * corrupt record, not an assertion failure.
 */
bool failureKindFromName(const char *name, FailureKind &out);

} // namespace keq

#endif // KEQ_SUPPORT_FAILURE_H
