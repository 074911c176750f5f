# Runs `${PROGRAM} ${ARG}` and fails unless it exits 2 and its stderr names
# the option as unknown and prints the usage line.
#
#   cmake -DPROGRAM=<binary> -DARG=<option> -P expect_usage_error.cmake
execute_process(COMMAND "${PROGRAM}" "${ARG}"
                RESULT_VARIABLE rc
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT rc STREQUAL "2")
  message(FATAL_ERROR "expected exit 2, got '${rc}'\nstdout:\n${out}\nstderr:\n${err}")
endif()
string(FIND "${err}" "unknown option ${ARG}" named)
string(FIND "${err}" "usage: " usage)
if(named EQUAL -1 OR usage EQUAL -1)
  message(FATAL_ERROR "expected 'unknown option ${ARG}' and the usage on stderr, got:\n${err}")
endif()
