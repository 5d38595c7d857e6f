# Fails, naming file:line, when a test source constructs a network, kv
# cluster or file system itself instead of going through workloads::Testbed
# (tests/testbed_fixture.h). One wiring of the symmetric deployment keeps the
# tests from drifting from what the benches and tools run, and leaves one
# place to hook every VFS call.
#   cmake -DTESTS=tests -P testbed_guard.cmake
cmake_minimum_required(VERSION 3.16)

# Sites that stay bare, as <file>|<scope>|<reason>. The scope is the test
# suite, fixture or struct the construction sits in, or * for the whole
# file. An entry that matches nothing fails the guard too. The typed
# network suites (sim_test, solver_property_test) build their networks as
# TypeParam, which no name pattern sees; they are bare by design as well.
set(allowed
  "net_test.cc|*|the network unit suite drives both solvers on bare fabrics"
  "kvstore_test.cc|*|the kv unit suite drives one KvCluster with no file system"
  "property_test.cc|NetworkPropertyTest|network-only properties need no storage"
  "amfs_test.cc|AmfsTest|Recreate(AmfsConfig) sets AMFS knobs Testbed does not pass"
  "testbed_fixture.h|SecondDeployment|the helper that adds a second deployment to a bed")

set(types "(FairShareNetwork|WaterfillNetwork|KvCluster|MemFs|Amfs)")
set(construct "(^|[^A-Za-z0-9_])${types} [A-Za-z_][A-Za-z0-9_]* *[({#=]")
set(construct "${construct}|make_unique<([a-z]+::)?${types}>")
set(construct "${construct}|new ([a-z]+::)?${types}[({]")
set(scope_line
    "^(TEST|TEST_F|TEST_P|TYPED_TEST|TYPED_TEST_P)\\(([A-Za-z0-9_]+),")
set(type_line "^(class|struct) ([A-Za-z0-9_]+)")

file(GLOB sources "${TESTS}/*.cc" "${TESTS}/*.h")
list(SORT sources)
set(used "")
set(findings 0)
foreach(source IN LISTS sources)
  get_filename_component(name "${source}" NAME)
  file(READ "${source}" text)
  # Brackets and semicolons would glue or split CMake list elements.
  string(REGEX REPLACE "[][]" "_" text "${text}")
  string(REPLACE ";" "#" text "${text}")
  string(REPLACE "\n" ";" lines "${text}")
  set(number 0)
  set(scope "")
  foreach(line IN LISTS lines)
    math(EXPR number "${number} + 1")
    if(line MATCHES "${scope_line}")
      set(scope "${CMAKE_MATCH_2}")
    elseif(line MATCHES "${type_line}")
      set(scope "${CMAKE_MATCH_2}")
    endif()
    if(line MATCHES "^ *//" OR NOT line MATCHES "${construct}")
      continue()
    endif()
    set(excused FALSE)
    foreach(entry IN LISTS allowed)
      string(REPLACE "|" ";" fields "${entry}")
      list(GET fields 0 file)
      list(GET fields 1 site)
      if(file STREQUAL name AND (site STREQUAL "*" OR site STREQUAL scope))
        set(excused TRUE)
        list(APPEND used "${entry}")
      endif()
    endforeach()
    if(NOT excused)
      string(STRIP "${line}" code)
      string(REPLACE "#" ";" code "${code}")
      message(SEND_ERROR "${source}:${number}: builds a cluster by hand "
              "(${code}); use workloads::Testbed or tests/testbed_fixture.h")
      math(EXPR findings "${findings} + 1")
    endif()
  endforeach()
endforeach()

foreach(entry IN LISTS allowed)
  if(NOT entry IN_LIST used)
    message(SEND_ERROR "allowlist entry matches no construction: ${entry}")
    math(EXPR findings "${findings} + 1")
  endif()
endforeach()
if(findings GREATER 0)
  message(FATAL_ERROR "${findings} testbed guard finding(s)")
endif()
