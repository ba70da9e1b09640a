# ctest checks for the offline readers nampc_prof and nampc_trace (see
# tools/CMakeLists.txt).
#
#   cmake -DMODE=<mode> -DPROF=<nampc_prof> -DTRACE=<nampc_trace>
#         -DCLI=<nampc_cli> -DSOURCE_DIR=<repo root> -DWORK_DIR=<scratch dir>
#         -P check_tools.cmake
#
# MODE prof_check     `nampc_prof --check` passes on the committed
#                     PROF_wss_n32_sync.jsonl.
# MODE prof_subtree   over a `nampc_cli vss --metrics` dump, the subtree
#                     messages and words `nampc_prof --top` shows for the
#                     root instance "p" equal the dump's run totals.
# MODE trace_budgets  a `nampc_cli vss --rawtrace` file is schema
#                     nampc-trace/2 and passes `nampc_trace --check-budgets`.
file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

function(run)
  execute_process(COMMAND ${ARGN} WORKING_DIRECTORY "${WORK_DIR}"
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${ARGN} exited ${rc}:\n${out}\n${err}")
  endif()
  set(out "${out}" PARENT_SCOPE)
endfunction()

set(vss vss --n 7 --ts 2 --ta 1)

if(MODE STREQUAL "prof_check")
  run("${PROF}" "${SOURCE_DIR}/PROF_wss_n32_sync.jsonl" --check)
  if(NOT out MATCHES "sums match run totals exactly")
    message(FATAL_ERROR "nampc_prof --check did not confirm:\n${out}")
  endif()
elseif(MODE STREQUAL "prof_subtree")
  run("${CLI}" ${vss} --metrics m.jsonl)
  run("${PROF}" m.jsonl --top 1000000)
  if(NOT out MATCHES "\n[a-z_()]+ +[0-9]+ +[0-9]+ +[0-9]+ +([0-9]+) +([0-9]+)  p\n")
    message(FATAL_ERROR "no top row for root key p:\n${out}")
  endif()
  set(sub_messages ${CMAKE_MATCH_1})
  set(sub_words ${CMAKE_MATCH_2})
  file(STRINGS "${WORK_DIR}/m.jsonl" total REGEX "\"row\":\"total\"")
  string(JSON messages GET "${total}" messages)
  string(JSON words GET "${total}" words)
  if(NOT sub_messages EQUAL messages OR NOT sub_words EQUAL words)
    message(FATAL_ERROR "subtree of p is ${sub_messages} messages / "
                        "${sub_words} words, run total ${messages} / ${words}")
  endif()
elseif(MODE STREQUAL "trace_budgets")
  run("${CLI}" ${vss} --rawtrace t.json)
  file(READ "${WORK_DIR}/t.json" trace)
  string(JSON schema GET "${trace}" schema)
  if(NOT schema STREQUAL "nampc-trace/2")
    message(FATAL_ERROR "raw trace schema is ${schema}, want nampc-trace/2")
  endif()
  run("${TRACE}" t.json --check-budgets)
else()
  message(FATAL_ERROR "unknown MODE ${MODE}")
endif()
