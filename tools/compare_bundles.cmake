# Compares two memfs_run bundles: both must hold the same files, each
# byte-identical to its namesake (cmake -E compare_files).
#
# Usage: cmake -DA=<bundle dir> -DB=<bundle dir> -P compare_bundles.cmake
file(GLOB files_a RELATIVE ${A} ${A}/*)
file(GLOB files_b RELATIVE ${B} ${B}/*)
if(NOT files_a OR NOT files_a STREQUAL files_b)
  message(FATAL_ERROR "bundles hold different files:\n"
                      "${A}: ${files_a}\n${B}: ${files_b}")
endif()
foreach(name IN LISTS files_a)
  execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                          ${A}/${name} ${B}/${name}
                  RESULT_VARIABLE differs)
  if(differs)
    message(FATAL_ERROR "${name} differs between ${A} and ${B}")
  endif()
endforeach()
