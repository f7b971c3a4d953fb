# ctest helper: runs COMMAND (one command line, split like a Unix shell would)
# and passes only when it exits 0 and its standard output equals the file
# EXPECTED byte for byte.
#
#   cmake -DCOMMAND="prog --flag value" -DEXPECTED=out.txt -P expect_output.cmake
separate_arguments(argv UNIX_COMMAND "${COMMAND}")
execute_process(COMMAND ${argv} RESULT_VARIABLE code
                OUTPUT_VARIABLE output ERROR_VARIABLE errors)
if(NOT code STREQUAL "0")
  message(FATAL_ERROR "'${COMMAND}' exited ${code}:\n${errors}")
endif()
file(READ "${EXPECTED}" expected)
if(NOT output STREQUAL expected)
  message(FATAL_ERROR
          "'${COMMAND}' printed:\n${output}\nnot ${EXPECTED}:\n${expected}")
endif()
