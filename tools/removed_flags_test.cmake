# Exercised by ctest (see tools/CMakeLists.txt): the racing,
# batched-discharge and solver-cache flags are gone from keqc, the
# quick diagonal from keq-conformance, and the TCP listen list, job
# ledger and verdict-store byte cap from keq-daemon, so each must reject
# them like any unknown option — exit 2 with the usage message — and
# never solve or serve.
#
#   cmake -DKEQC=<binary> -DKEQ_CONFORMANCE=<binary> -DKEQD=<binary>
#         -DWORK_DIR=<dir> -P removed_flags_test.cmake
if(NOT DEFINED KEQC OR NOT DEFINED KEQ_CONFORMANCE OR
   NOT DEFINED KEQD OR NOT DEFINED WORK_DIR)
    message(FATAL_ERROR
        "usage: cmake -DKEQC=... -DKEQ_CONFORMANCE=... -DKEQD=... "
        "-DWORK_DIR=... -P removed_flags_test.cmake")
endif()

function(expect_usage_exit label)
    # A binary that accepted the flag might serve forever (keq-daemon);
    # the timeout turns that into a failed exit-code check.
    execute_process(
        COMMAND ${ARGN}
        TIMEOUT 20
        RESULT_VARIABLE code
        OUTPUT_VARIABLE out
        ERROR_VARIABLE err)
    if(NOT code EQUAL 2)
        message(FATAL_ERROR
            "${label}: expected exit code 2, got '${code}'\n"
            "stdout: ${out}\nstderr: ${err}")
    endif()
    string(FIND "${err}" "usage:" usage_at)
    if(usage_at EQUAL -1)
        message(FATAL_ERROR
            "${label}: expected the usage message\nstderr: ${err}")
    endif()
    foreach(solved "validated" "conformance:")
        string(FIND "${out}" "${solved}" solved_at)
        if(NOT solved_at EQUAL -1)
            message(FATAL_ERROR "${label}: ran anyway\n${out}")
        endif()
    endforeach()
endfunction()

set(module "${WORK_DIR}/keqc-removed-flags.ll")
file(WRITE "${module}"
    "define i32 @ok(i32 %a) {\n"
    "entry:\n"
    "  %r = add i32 %a, 1\n"
    "  ret i32 %r\n"
    "}\n")

foreach(flag --portfolio=2 --portfolio-lanes=default --batch-discharge
             --no-solver-cache)
    expect_usage_exit("keqc ${flag}" "${KEQC}" "${flag}" "${module}")
endforeach()

expect_usage_exit("keq-conformance --quick" "${KEQ_CONFORMANCE}" --quick)

# Each keq-daemon case also names a socket, so only the removed flag
# can be what is rejected.
set(socket "${WORK_DIR}/keqd-removed-flags.sock")
foreach(flag --listen=unix:/tmp/x --job-ledger=8 --verdict-store-mb=8)
    expect_usage_exit("keq-daemon ${flag}"
        "${KEQD}" "--socket=${socket}" "${flag}")
endforeach()
