#include "src/support/failure.h"

#include <cstring>

#include "src/support/diagnostics.h"

namespace keq {

const char *
failureKindName(FailureKind kind)
{
    switch (kind) {
    case FailureKind::None:
        return "none";
    case FailureKind::Timeout:
        return "timeout";
    case FailureKind::MemoryBudget:
        return "memory-budget";
    case FailureKind::SolverUnknown:
        return "solver-unknown";
    case FailureKind::SolverCrash:
        return "solver-crash";
    case FailureKind::Cancelled:
        return "cancelled";
    case FailureKind::WorkerKilled:
        return "worker-killed";
    case FailureKind::WorkerOom:
        return "worker-oom";
    case FailureKind::AuditMismatch:
        return "audit-mismatch";
    }
    KEQ_ASSERT(false, "bad FailureKind");
    return "?";
}

bool
failureKindFromName(const char *name, FailureKind &out)
{
    static constexpr FailureKind kAll[] = {
        FailureKind::None,          FailureKind::Timeout,
        FailureKind::MemoryBudget,  FailureKind::SolverUnknown,
        FailureKind::SolverCrash,   FailureKind::Cancelled,
        FailureKind::WorkerKilled,  FailureKind::WorkerOom,
        FailureKind::AuditMismatch,
    };
    for (FailureKind kind : kAll) {
        if (std::strcmp(name, failureKindName(kind)) == 0) {
            out = kind;
            return true;
        }
    }
    return false;
}

} // namespace keq
