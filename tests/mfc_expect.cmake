# Runs mfc on one program and requires an exact exit code, a match on
# stderr and, when STDOUT is given, exactly that stdout (one line): the
# gate for inputs that must end in a clean trap (exit 4), a compile error
# (exit 1) or a normal run, never in a runtime fault (exit 3) or a crash.
# Run with
#   cmake -DMFC=<path-to-mfc> -DFLAG=<one mfc flag> -DPROGRAM=<file.mf>
#         -DEXIT=<code> -DSTDERR=<regex> [-DSTDOUT=<line>]
#         -P mfc_expect.cmake
foreach(var MFC FLAG PROGRAM EXIT STDERR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "pass -D${var}=<value>")
  endif()
endforeach()

execute_process(COMMAND ${MFC} ${FLAG} ${PROGRAM}
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
# A process killed by a signal reports a text such as "Child aborted"
# instead of a number, so this also rejects crashes.
if(NOT rc STREQUAL "${EXIT}")
  message(FATAL_ERROR
    "mfc ${FLAG}: expected exit code ${EXIT}, got '${rc}':\n${err}")
endif()
if(NOT err MATCHES "${STDERR}")
  message(FATAL_ERROR "mfc ${FLAG}: stderr does not match '${STDERR}':\n${err}")
endif()
if(DEFINED STDOUT AND NOT out STREQUAL "${STDOUT}\n")
  message(FATAL_ERROR
    "mfc ${FLAG}: expected stdout '${STDOUT}', got '${out}'")
endif()
