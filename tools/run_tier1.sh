#!/bin/sh
# Configure, build, and run the tier-1 test suite in one shot.
#
# Usage:
#   tools/run_tier1.sh [sanitizer] [chaos|conformance|service|soak] [build-dir]
#
#   tools/run_tier1.sh                # plain build in build/
#   tools/run_tier1.sh tsan           # ThreadSanitizer build in build-tsan/
#   tools/run_tier1.sh asan           # AddressSanitizer build in build-asan/
#   tools/run_tier1.sh asan mydir     # AddressSanitizer build in mydir/
#   tools/run_tier1.sh chaos          # fault-injection suite only (-L chaos)
#   tools/run_tier1.sh tsan chaos     # chaos suite under ThreadSanitizer
#   tools/run_tier1.sh conformance    # conformance suite (-L conformance)
#   tools/run_tier1.sh service        # validation daemon suite (-L service)
#   tools/run_tier1.sh soak           # daemon soak (-L soak; stretch with
#                                     #   KEQ_SOAK_SECONDS=60)
#
# The legacy spelling `KEQ_TSAN=1 tools/run_tier1.sh tsan-dir` still
# works: when the first argument is not a sanitizer name it is taken as
# the build directory. Each sanitizer gets its own default build
# directory so instrumented objects never mix with regular ones.
set -eu

repo_root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)

sanitizer=none
case ${1:-} in
    tsan|asan)
        sanitizer=$1
        shift
        ;;
esac

suite=all
case ${1:-} in
    chaos|conformance|service|soak)
        suite=$1
        shift
        ;;
esac

case $sanitizer in
    tsan) default_dir=build-tsan ;;
    asan) default_dir=build-asan ;;
    *) default_dir=build ;;
esac
build_dir=${1:-$default_dir}
case $build_dir in
    /*) ;;
    *) build_dir=$repo_root/$build_dir ;;
esac

jobs=$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 2)

tsan_flag=OFF
asan_flag=OFF
if [ "$sanitizer" = tsan ] ||
   { [ -n "${KEQ_TSAN:-}" ] && [ "${KEQ_TSAN:-0}" != "0" ]; }; then
    tsan_flag=ON
    # Z3 is uninstrumented; silence its false positives (see tsan.supp).
    TSAN_OPTIONS="suppressions=$repo_root/tools/tsan.supp ${TSAN_OPTIONS:-}"
    export TSAN_OPTIONS
fi
if [ "$sanitizer" = asan ] ||
   { [ -n "${KEQ_ASAN:-}" ] && [ "${KEQ_ASAN:-0}" != "0" ]; }; then
    asan_flag=ON
    # Z3 is uninstrumented and holds allocations until exit; leak
    # checking would drown real reports in library noise.
    ASAN_OPTIONS="detect_leaks=0 ${ASAN_OPTIONS:-}"
    export ASAN_OPTIONS
fi
if [ "$tsan_flag" = ON ] && [ "$asan_flag" = ON ]; then
    echo "error: tsan and asan are mutually exclusive" >&2
    exit 2
fi

cmake -S "$repo_root" -B "$build_dir" -DKEQ_TSAN=$tsan_flag \
    -DKEQ_ASAN=$asan_flag
cmake --build "$build_dir" -j "$jobs"
if [ "$suite" = chaos ]; then
    # The fault-injection contract: injected solver faults never change
    # a verdict and truncated checkpoints resume exactly (tests labelled
    # `chaos`). Worth running under tsan too — the fault schedule and
    # the watchdog both cross worker threads.
    ctest --test-dir "$build_dir" --output-on-failure -j "$jobs" -L chaos
elif [ "$suite" = conformance ]; then
    # The differential conformance gate: every corpus file through the
    # full configuration matrix with verdict identity, EXPECT agreement,
    # and full opcode coverage (tests labelled `conformance`).
    ctest --test-dir "$build_dir" --output-on-failure -j "$jobs" \
        -L conformance
elif [ "$suite" = service ]; then
    # The validation-daemon gate: wire handshake properties, the
    # fair queue, the cross-run verdict store, in-process daemon
    # integration (full-corpus parity, warm-cache, backpressure), the
    # Unix-socket transport and its framing fault injection, the
    # SIGKILL chaos suite against real keq-daemon and keqc processes,
    # and the keqc --daemon degradation and endpoint scripts (tests
    # labelled `service`).
    ctest --test-dir "$build_dir" --output-on-failure -j "$jobs" \
        -L service
elif [ "$suite" = soak ]; then
    # The month-scale daemon gate: multi-client soak with every warm
    # verdict-store hit audited (trust-but-verify) and concurrent
    # journal compaction, asserting zero audit mismatches and
    # daemonless verdict parity throughout. KEQ_SOAK_SECONDS stretches
    # the wall-clock budget (CI uses 60 under ASan).
    ctest --test-dir "$build_dir" --output-on-failure -j "$jobs" \
        -L soak
else
    ctest --test-dir "$build_dir" --output-on-failure -j "$jobs"
fi
