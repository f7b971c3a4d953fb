# ctest helper: runs COMMAND (one command line, split like a Unix shell would)
# and passes only when it exits 1 and its output contains MESSAGE.
#
#   cmake -DCOMMAND="prog --flag value" -DMESSAGE="text" -P expect_failure.cmake
separate_arguments(argv UNIX_COMMAND "${COMMAND}")
execute_process(COMMAND ${argv} RESULT_VARIABLE code
                OUTPUT_VARIABLE output ERROR_VARIABLE output)
if(NOT code STREQUAL "1")
  message(FATAL_ERROR "'${COMMAND}' exited ${code}, not 1:\n${output}")
endif()
string(FIND "${output}" "${MESSAGE}" at)
if(at EQUAL -1)
  message(FATAL_ERROR "'${COMMAND}' did not print '${MESSAGE}':\n${output}")
endif()
