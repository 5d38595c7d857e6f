# Copies the paper ledger IN to OUT with the first fig03a value moved far past
# its tolerance: prefixing a digit to a positive number at least doubles it.
#   cmake -DIN=BENCH_paper.json -DOUT=drifted.json -P drift_ledger.cmake
file(READ "${IN}" ledger)
string(REGEX MATCH "\"figure\": \"fig03a\"[^\n]*\"value\": " line "${ledger}")
if(NOT line)
  message(FATAL_ERROR "${IN} has no fig03a value")
endif()
string(REPLACE "${line}" "${line}9" ledger "${ledger}")
file(WRITE "${OUT}" "${ledger}")
