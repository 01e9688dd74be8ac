# Exercised by ctest (see tools/CMakeLists.txt): keq-solver-worker must
# reject a malformed or out-of-range --memory-mb=, --cpu-seconds= or
# --heartbeat-ms= value with exit code 2, as it does an unknown option.
# A value that silently became 0 would lift the RLIMIT_AS cap.
#
#   cmake -DWORKER=<binary> -P worker_usage_test.cmake
if(NOT DEFINED WORKER)
    message(FATAL_ERROR
        "usage: cmake -DWORKER=... -P worker_usage_test.cmake")
endif()

foreach(arg --memory-mb=abc --memory-mb= --memory-mb=12x --memory-mb=-1
            --cpu-seconds=4294967296 --heartbeat-ms=-1
            --heartbeat-ms=+5)
    execute_process(
        COMMAND "${WORKER}" "${arg}"
        INPUT_FILE /dev/null
        RESULT_VARIABLE code
        OUTPUT_VARIABLE out
        ERROR_VARIABLE err)
    if(NOT code EQUAL 2)
        message(FATAL_ERROR
            "${arg}: expected exit code 2, got '${code}'\nstderr: ${err}")
    endif()
    string(FIND "${err}" "malformed value in '${arg}'" named_at)
    if(named_at EQUAL -1)
        message(FATAL_ERROR
            "${arg}: the diagnostic must name the argument\n"
            "stderr: ${err}")
    endif()
endforeach()

# Well-formed values start the worker, which exits 0 at end of input.
# --memory-mb=0 (no cap) keeps this runnable under AddressSanitizer,
# whose shadow mappings exceed any RLIMIT_AS a test would pick.
execute_process(
    COMMAND "${WORKER}" --memory-mb=0 --cpu-seconds=4294967295
            --heartbeat-ms=0
    INPUT_FILE /dev/null
    RESULT_VARIABLE code
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
if(NOT code EQUAL 0)
    message(FATAL_ERROR
        "well-formed values: expected exit code 0, got '${code}'\n"
        "stderr: ${err}")
endif()
