# Exercised by ctest (see tools/CMakeLists.txt): a malformed socket
# spec handed to keqc --daemon= or keq-daemon --socket= must exit 64
# (EX_USAGE) with a diagnostic that names the offending spec — never a
# connect attempt, never a crash, never the generic usage exit 2. The
# daemon serves one Unix socket, so a tcp: spec and a comma list are
# malformed too.
#
#   cmake -DKEQC=<binary> -DKEQD=<binary> -DWORK_DIR=<dir> \
#         -P endpoint_usage_test.cmake
if(NOT DEFINED KEQC OR NOT DEFINED KEQD OR NOT DEFINED WORK_DIR)
    message(FATAL_ERROR
        "usage: cmake -DKEQC=... -DKEQD=... -DWORK_DIR=... "
        "-P endpoint_usage_test.cmake")
endif()

set(module "${WORK_DIR}/keqc-endpoint-usage.ll")
file(WRITE "${module}"
    "define i32 @ok(i32 %a) {\n"
    "entry:\n"
    "  %r = add i32 %a, 1\n"
    "  ret i32 %r\n"
    "}\n")

# Each row: one malformed spec. The diagnostic must quote it.
set(bad_specs
    "unix:/a,unix:/b"      # comma list (no failover lists)
    "tcp:127.0.0.1:1"      # no TCP transport
    "udp:host:7461"        # unknown scheme
    "unix:"                # empty path
)

foreach(spec IN LISTS bad_specs)
    execute_process(
        COMMAND "${KEQC}" "--daemon=${spec}" "${module}"
        RESULT_VARIABLE code
        OUTPUT_VARIABLE out
        ERROR_VARIABLE err)
    if(NOT code EQUAL 64)
        message(FATAL_ERROR
            "keqc --daemon=${spec}: expected exit 64 (EX_USAGE), "
            "got '${code}'\nstderr: ${err}")
    endif()
    string(FIND "${err}" "'${spec}'" spec_at)
    if(spec_at EQUAL -1)
        message(FATAL_ERROR
            "keqc --daemon=${spec}: diagnostic must name the "
            "offending spec\nstderr: ${err}")
    endif()

    execute_process(
        COMMAND "${KEQD}" "--socket=${spec}"
        TIMEOUT 20
        RESULT_VARIABLE code
        OUTPUT_VARIABLE out
        ERROR_VARIABLE err)
    if(NOT code EQUAL 64)
        message(FATAL_ERROR
            "keq-daemon --socket=${spec}: expected exit 64 "
            "(EX_USAGE), got '${code}'\nstderr: ${err}")
    endif()
    string(FIND "${err}" "'${spec}'" spec_at)
    if(spec_at EQUAL -1)
        message(FATAL_ERROR
            "keq-daemon --socket=${spec}: diagnostic must name the "
            "offending spec\nstderr: ${err}")
    endif()
endforeach()

# A well-formed spec must NOT take the usage exit: nobody listens on
# this socket, so keqc warns and degrades to local (exit 0).
execute_process(
    COMMAND "${KEQC}" "--daemon=unix:${WORK_DIR}/keqc-no-daemon.sock"
            "${module}"
    RESULT_VARIABLE code
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
if(NOT code EQUAL 0)
    message(FATAL_ERROR
        "well-formed endpoint with no daemon must degrade to local "
        "and exit 0, got '${code}'\nstderr: ${err}")
endif()
