# Exercised by ctest (see tools/CMakeLists.txt): the racing and
# batched-discharge flags are gone, so keqc must reject them like any
# unknown option — exit 2 with the usage message — and never solve.
#
#   cmake -DKEQC=<binary> -DWORK_DIR=<dir> -P removed_flags_test.cmake
if(NOT DEFINED KEQC OR NOT DEFINED WORK_DIR)
    message(FATAL_ERROR
        "usage: cmake -DKEQC=... -DWORK_DIR=... "
        "-P removed_flags_test.cmake")
endif()

set(module "${WORK_DIR}/keqc-removed-flags.ll")
file(WRITE "${module}"
    "define i32 @ok(i32 %a) {\n"
    "entry:\n"
    "  %r = add i32 %a, 1\n"
    "  ret i32 %r\n"
    "}\n")

foreach(flag --portfolio=2 --portfolio-lanes=default --batch-discharge)
    execute_process(
        COMMAND "${KEQC}" "${flag}" "${module}"
        RESULT_VARIABLE code
        OUTPUT_VARIABLE out
        ERROR_VARIABLE err)
    if(NOT code EQUAL 2)
        message(FATAL_ERROR
            "${flag}: expected exit code 2, got '${code}'\n"
            "stdout: ${out}\nstderr: ${err}")
    endif()
    string(FIND "${err}" "usage:" usage_at)
    if(usage_at EQUAL -1)
        message(FATAL_ERROR
            "${flag}: expected the usage message\nstderr: ${err}")
    endif()
    string(FIND "${out}" "validated" solved_at)
    if(NOT solved_at EQUAL -1)
        message(FATAL_ERROR "${flag}: keqc solved anyway\n${out}")
    endif()
endforeach()
