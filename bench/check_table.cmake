# ctest check for the nampc_bench driver (see bench/CMakeLists.txt).
#
#   cmake -DBENCH=<nampc_bench> -DTABLE=<name> -DSOURCE_DIR=<repo root>
#         -DWORK_DIR=<scratch dir> [-DUNWRITABLE=ON] -P check_table.cmake
#
# Runs `nampc_bench TABLE --jobs 2` in an empty WORK_DIR. For a known table,
# the BENCH_TABLE.json it writes must equal the committed copy byte for byte.
# For TABLE = no_such_table, the driver must exit 2, list the tables and
# write no file. With UNWRITABLE=ON the json directory does not exist:
# nampc_bench must report it and exit 2 (an I/O error, not a broken bound).
file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
if(UNWRITABLE)
  set(ENV{NAMPC_BENCH_JSON_DIR} "${WORK_DIR}/missing")
else()
  set(ENV{NAMPC_BENCH_JSON_DIR} "${WORK_DIR}")
endif()
unset(ENV{NAMPC_METRICS_DIR})
execute_process(COMMAND "${BENCH}" "${TABLE}" --jobs 2
  WORKING_DIRECTORY "${WORK_DIR}"
  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
file(GLOB written "${WORK_DIR}/*")

if(TABLE STREQUAL "no_such_table")
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "unknown table exited ${rc}, want 2")
  endif()
  if(NOT err MATCHES "tables: rs_schedule feasibility")
    message(FATAL_ERROR "unknown table did not list the tables:\n${err}")
  endif()
  if(written)
    message(FATAL_ERROR "unknown table wrote files: ${written}")
  endif()
  return()
endif()

if(UNWRITABLE)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "unwritable json dir exited ${rc}, want 2")
  endif()
  if(NOT err MATCHES "BENCH json: cannot write")
    message(FATAL_ERROR "unwritable json dir not reported:\n${err}")
  endif()
  return()
endif()

if(NOT rc EQUAL 0)
  message(FATAL_ERROR "nampc_bench ${TABLE} exited ${rc}:\n${err}")
endif()
execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files
  "${SOURCE_DIR}/BENCH_${TABLE}.json" "${WORK_DIR}/BENCH_${TABLE}.json"
  RESULT_VARIABLE differ)
if(differ)
  message(FATAL_ERROR "BENCH_${TABLE}.json regenerated with different bytes "
                      "(kept in ${WORK_DIR})")
endif()
