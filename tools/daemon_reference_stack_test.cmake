# Exercised by ctest (see tools/CMakeLists.txt): the daemon always
# solves on the optimized stack, so keqc --daemon --no-smt-opt must say
# it ignores --daemon and run the reference stack locally, without
# trying the daemon at all.
#
#   cmake -DKEQC=<binary> -DWORK_DIR=<dir> -P daemon_reference_stack_test.cmake
if(NOT DEFINED KEQC OR NOT DEFINED WORK_DIR)
    message(FATAL_ERROR
        "usage: cmake -DKEQC=... -DWORK_DIR=... "
        "-P daemon_reference_stack_test.cmake")
endif()

set(module "${WORK_DIR}/keqc-daemon-reference-stack.ll")
file(WRITE "${module}"
    "define i32 @inc(i32 %a) {\n"
    "entry:\n"
    "  %r = add nsw i32 %a, 1\n"
    "  ret i32 %r\n"
    "}\n")

set(dead_socket "${WORK_DIR}/keqc-reference-no-daemon.sock")
file(REMOVE "${dead_socket}")

execute_process(
    COMMAND "${KEQC}" "--daemon=${dead_socket}" --no-smt-opt --stats
            "${module}"
    RESULT_VARIABLE code
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)

if(NOT code EQUAL 0)
    message(FATAL_ERROR
        "expected a local run that validates and exits 0, got '${code}'\n"
        "stdout: ${out}\nstderr: ${err}")
endif()
string(FIND "${err}"
    "--no-smt-opt runs the reference stack locally; ignoring --daemon"
    warn_at)
if(warn_at EQUAL -1)
    message(FATAL_ERROR
        "missing the ignored --daemon warning\nstderr: ${err}")
endif()
string(FIND "${err}" "falling back to local validation" fallback_at)
if(NOT fallback_at EQUAL -1)
    message(FATAL_ERROR
        "keqc tried the daemon although it was ignored\nstderr: ${err}")
endif()
string(FIND "${out}" "1/1 functions validated" validated_at)
if(validated_at EQUAL -1)
    message(FATAL_ERROR "the local run did not validate\nstdout: ${out}")
endif()
# The reference stack has no cache, so there is no cache line.
string(FIND "${out}" "solver cache:" cache_at)
if(NOT cache_at EQUAL -1)
    message(FATAL_ERROR
        "the local run did not use the reference stack\nstdout: ${out}")
endif()
