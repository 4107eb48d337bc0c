# Compile-time scaling gate: one do-loop body of 20,000 statements
#   a(i + k) = b(i - 1) + c        (k cycles through 0..199)
# is compiled and audited under every placement scheme. All but the first
# 200 statements' checks are redundant, so every scheme deletes tens of
# thousands of checks from one block: erasing them one at a time takes
# minutes, one compaction pass well under a second. The 402-check
# universe also takes the bit vectors past their 128-bit inline storage.
# Run with
#   cmake -DMFC=<path-to-mfc> -DWORK_DIR=<dir> -P large_block.cmake
foreach(var MFC WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "pass -D${var}=<path>")
  endif()
endforeach()

set(chunk "")
foreach(k RANGE 199)
  string(APPEND chunk "    a(i + ${k}) = b(i - 1) + c\n")
endforeach()
string(REPEAT "${chunk}" 100 body)
set(program "${WORK_DIR}/large_block.mf")
file(WRITE ${program}
  "program large\n  integer i, n\n  real a(300), b(300), c\n"
  "  n = 3\n  c = 1.0\n  do i = 2, n\n${body}  end do\n"
  "  print a(2)\nend program\n")

foreach(scheme NI CS LNI SE LI LLS ALL MCM AI)
  execute_process(COMMAND ${MFC} -scheme=${scheme} -audit -quiet ${program}
    OUTPUT_QUIET ERROR_VARIABLE err RESULT_VARIABLE rc)
  if(NOT rc STREQUAL "0")
    message(FATAL_ERROR "mfc -scheme=${scheme} -audit exited with '${rc}':\n"
                        "${err}")
  endif()
  if(NOT err MATCHES "audit: status=pass findings=0")
    message(FATAL_ERROR "mfc -scheme=${scheme} -audit did not pass:\n${err}")
  endif()
endforeach()
