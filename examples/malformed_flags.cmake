# Malformed-flag gate for the telemetry switches of mfc and sweep: a
# -remarks regex that does not compile and an -explain number that does
# not fit a line/column/tag must each be rejected with exit code 2 and one
# diagnostic on stderr, never by an uncaught exception (a signal). Run with
#   cmake -DMFC=<path-to-mfc> -DSWEEP=<path-to-sweep> -DPROGRAM=<file.mf>
#         -P malformed_flags.cmake
foreach(var MFC SWEEP PROGRAM)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "pass -D${var}=<path>")
  endif()
endforeach()

set(checked 0)
# Checks the rc/err of the execute_process just run. A process killed by a
# signal reports a text such as "Child aborted" instead of a number, so
# this also rejects crashes. (The flags are spelled out per call: an
# unbalanced '[' would stop CMake from splitting a list of them.)
macro(expect_rejected label)
  if(NOT rc STREQUAL "2")
    message(FATAL_ERROR "${label}: expected exit code 2, got '${rc}'")
  endif()
  string(STRIP "${err}" err)
  if(err STREQUAL "")
    message(FATAL_ERROR "${label}: exited 2 without a diagnostic")
  endif()
  math(EXPR checked "${checked} + 1")
endmacro()

execute_process(COMMAND ${MFC} -quiet "-remarks=[" ${PROGRAM}
  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
expect_rejected("mfc -remarks=[")
execute_process(COMMAND ${MFC} -quiet "-remarks=(" ${PROGRAM}
  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
expect_rejected("mfc -remarks=(")
foreach(spec 99999999999999999999 tag:18446744073709551616 tag:4294967297
             4294967305 prog.mf:9:4294967296)
  execute_process(COMMAND ${MFC} -quiet -explain=${spec} ${PROGRAM}
    RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
  expect_rejected("mfc -explain=${spec}")
endforeach()
execute_process(COMMAND ${SWEEP} "--remarks=("
  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
expect_rejected("sweep --remarks=(")
execute_process(COMMAND ${SWEEP} "--remarks=["
  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
expect_rejected("sweep --remarks=[")
message(STATUS "${checked} malformed flag values rejected with exit code 2")
