# Malformed-flag gate: a -remarks regex that does not compile, an -explain
# number that does not fit a line/column/tag, a bench harness count that is
# not a non-negative integer and a benchdiff margin that is not a
# non-negative number must each be rejected with exit code 2 and one
# diagnostic on stderr, never by an uncaught exception (a signal) and never
# by silently reading a prefix of the value. Run with
#   cmake -DMFC=<path-to-mfc> -DSWEEP=<path-to-sweep> -DPROGRAM=<file.mf>
#         -DTABLE2=<path-to-table2_schemes> -DBENCHDIFF=<path-to-benchdiff>
#         -DBASELINE=<BENCH_*.json> -P malformed_flags.cmake
foreach(var MFC SWEEP PROGRAM TABLE2 BENCHDIFF BASELINE)
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
# Each value below follows an otherwise valid command line, so only the
# value itself can make the run fail.
foreach(flag --jobs --reps --warmup)
  foreach(value abc 2x -1)
    execute_process(COMMAND ${TABLE2} --tiny ${flag} ${value}
      RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
    expect_rejected("table2_schemes ${flag} ${value}")
  endforeach()
endforeach()
execute_process(COMMAND ${TABLE2} --tiny --reps 0
  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
expect_rejected("table2_schemes --reps 0")
foreach(flag --time-margin --min-time)
  foreach(value abc -5 0.1x nan)
    execute_process(COMMAND ${BENCHDIFF} --check --baseline ${BASELINE}
                            --current ${BASELINE} ${flag} ${value}
      RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
    expect_rejected("benchdiff ${flag} ${value}")
  endforeach()
endforeach()
message(STATUS "${checked} malformed flag values rejected with exit code 2")
