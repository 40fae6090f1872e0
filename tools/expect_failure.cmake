# Runs EXE with the space-separated ARGS and passes only when the command
# exits non-zero AND its combined stdout/stderr contains the literal EXPECT.
# ctest's WILL_FAIL and PASS_REGULAR_EXPRESSION cannot express "fails, and
# says why" together, so rejection tests run through this script:
#   cmake -DEXE=<binary> -DARGS="<args>" -DEXPECT=<text> -P expect_failure.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${EXE}" ${args}
                RESULT_VARIABLE code
                OUTPUT_VARIABLE output
                ERROR_VARIABLE output)
if(code EQUAL 0)
  message(FATAL_ERROR "expected a non-zero exit, got 0; output:\n${output}")
endif()
string(FIND "${output}" "${EXPECT}" found)
if(found EQUAL -1)
  message(FATAL_ERROR
          "exit ${code} but output lacks '${EXPECT}'; output:\n${output}")
endif()
