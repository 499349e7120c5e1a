# Run PROG with ARGS (one space-separated string) and fail unless it
# exits with EXPECT_EXIT and its stderr matches EXPECT_STDERR. A death
# by signal reports a non-numeric result, so an abort never passes.
#
#   cmake -DPROG=... -DARGS="8 1 DEPTH" -DEXPECT_EXIT=2
#         -DEXPECT_STDERR=regex -P expect_exit.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${PROG}" ${args}
                RESULT_VARIABLE code
                OUTPUT_QUIET
                ERROR_VARIABLE err)
if(NOT code STREQUAL "${EXPECT_EXIT}" OR NOT err MATCHES "${EXPECT_STDERR}")
    message(FATAL_ERROR "${PROG} ${ARGS}: exit '${code}' (want "
                        "${EXPECT_EXIT}), stderr: ${err}")
endif()
