# Runs every bench_paper row at 1% scale with a 1 s cap and checks the
# TSV it writes: one line per cell, and Figure 2's worked example exact.
#   cmake -DBENCH=<bench_paper> -DOUT=<file.tsv> -DCELLS=<n> -P paper_smoke.cmake
execute_process(
  COMMAND ${CMAKE_COMMAND} -E env DQR_BENCH_SCALE=0.01 DQR_BENCH_TIMEOUT_S=1
    ${BENCH} --out=${OUT}
  RESULT_VARIABLE status OUTPUT_VARIABLE output ERROR_VARIABLE output)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "bench_paper failed (${status}):\n${output}")
endif()

file(READ ${OUT} tsv)
string(REGEX MATCHALL "\n" newlines "${tsv}")
list(LENGTH newlines lines)
math(EXPR cells "${lines} - 1")  # the header
if(NOT cells EQUAL CELLS)
  message(FATAL_ERROR "expected ${CELLS} cells, ${OUT} has ${cells}")
endif()

string(REGEX MATCH "\nFIG2\twalk-through\t[^\n]*" walk "${tsv}")
string(FIND "${walk}" "BRP 0.53 and 0.29, c2 [53, 60]\t" found)
if(found EQUAL -1)
  message(FATAL_ERROR "Figure 2's walk-through is off: '${walk}'")
endif()
