# cmake -DBENCH=<binary> -DSHA256=<hex> [-DMASK_LAST_COLUMN=ON] -P <this>
# runs a paper binary under VARSIM_QUICK=1 and passes iff it exits 0
# and the SHA-256 of its stdout equals SHA256. MASK_LAST_COLUMN
# blanks the last cell of every table row first, for a column of
# host seconds (Table 4), which no two runs share.

set(ENV{VARSIM_QUICK} 1)
execute_process(COMMAND "${BENCH}"
                RESULT_VARIABLE rc
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "'${BENCH}' exited ${rc}:\n${out}${err}")
endif()
if(MASK_LAST_COLUMN)
    string(REGEX REPLACE "\\| [^|\n]* \\|\n" "| * |\n" out "${out}")
endif()
string(SHA256 got "${out}")
if(NOT got STREQUAL SHA256)
    message(NOTICE "${out}")
    message(NOTICE "stdout SHA-256 ${got}")
    message(FATAL_ERROR "'${BENCH}': stdout SHA-256 is not ${SHA256}")
endif()
