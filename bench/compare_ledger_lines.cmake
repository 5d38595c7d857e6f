# Fails unless two paper ledgers hold the same records, byte for byte, for
# the figures whose id starts with FIGURE (a record's trailing comma aside:
# it depends only on the record's place in the file).
#   cmake -DRUN=run.json -DLEDGER=BENCH_paper.json -DFIGURE=abl_elastic
#         -P compare_ledger_lines.cmake
cmake_minimum_required(VERSION 3.16)
foreach(file RUN LEDGER)
  file(STRINGS "${${file}}" lines REGEX "\"figure\": \"${FIGURE}")
  list(TRANSFORM lines REPLACE ",$" "")
  set(${file}_lines "${lines}")
endforeach()
if(NOT RUN_lines)
  message(FATAL_ERROR "${RUN} has no ${FIGURE} record")
endif()
if(NOT RUN_lines STREQUAL LEDGER_lines)
  foreach(line IN LISTS RUN_lines)
    if(NOT line IN_LIST LEDGER_lines)
      message(SEND_ERROR "not in ${LEDGER}: ${line}")
    endif()
  endforeach()
  foreach(line IN LISTS LEDGER_lines)
    if(NOT line IN_LIST RUN_lines)
      message(SEND_ERROR "not in ${RUN}: ${line}")
    endif()
  endforeach()
  message(FATAL_ERROR "the ${FIGURE} records of ${RUN} and ${LEDGER} differ")
endif()
