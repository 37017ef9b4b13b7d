# Runs a program on a list of command lines and checks how each one ends.
# ctest invokes it through xrbench_cli_check() in the root CMakeLists.txt:
#
#   cmake -DPROGRAM=<binary> [-DCASES=<a|b|...>] [-DTHREADS=<0|4|...>]
#         [-DEXIT=<code>] [-DGOLDEN=<file>] [-DEXPECT=<a|b|...>]
#         [-DOUTPUT=<file> -DOUTPUT_GOLDEN=<file>]
#         -P tests/cli_check.cmake
#
#   CASES    command lines separated by '|'; each is split like a shell
#            command line (quotes group words). When empty, the program
#            runs once with no arguments.
#   THREADS  XRBENCH_THREADS values separated by '|'. Every case runs once
#            per value; when empty, once with the environment unchanged.
#   EXIT     the exit code every run must end with (default 0).
#   GOLDEN   a file that every run's stdout must equal byte for byte, once
#            lines naming the worker count ("worker threads") are dropped.
#   EXPECT   fragments separated by '|' that every run's stderr must
#            contain.
#   OUTPUT   a file, relative to the working directory, that every run
#            must write; it is removed before each run and must then equal
#            OUTPUT_GOLDEN byte for byte.
#
# Without EXPECT, a run expected to fail (EXIT other than 0) must name the
# first word of its command line, the flag it rejects, on stderr.
cmake_minimum_required(VERSION 3.16)

if("${EXIT}" STREQUAL "")
  set(EXIT 0)
endif()
string(REPLACE "|" ";" thread_values "${THREADS}")
string(REPLACE "|" ";" fragments "${EXPECT}")
if(NOT thread_values)
  set(thread_values "inherit")
endif()
if(NOT "${GOLDEN}" STREQUAL "")
  file(READ "${GOLDEN}" expected)
endif()
if(NOT "${OUTPUT}" STREQUAL "")
  file(READ "${OUTPUT_GOLDEN}" expected_output)
endif()

set(failures 0)

function(check_case case)
  separate_arguments(args UNIX_COMMAND "${case}")
  foreach(threads IN LISTS thread_values)
    set(run "'${case}'")
    if(NOT threads STREQUAL "inherit")
      set(ENV{XRBENCH_THREADS} "${threads}")
      string(APPEND run " at XRBENCH_THREADS=${threads}")
    endif()
    if(DEFINED expected_output)
      file(REMOVE "${OUTPUT}")
    endif()
    execute_process(COMMAND "${PROGRAM}" ${args}
      RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
    if(NOT "${rc}" STREQUAL "${EXIT}")
      message(SEND_ERROR "${run}: exit ${rc}, expected ${EXIT}\nstderr:\n${err}")
      math(EXPR failures "${failures} + 1")
    endif()
    if(DEFINED expected)
      string(REGEX REPLACE "[^\n]*worker threads[^\n]*\n" "" out "${out}")
      if(NOT "${out}" STREQUAL "${expected}")
        message(SEND_ERROR "${run}: stdout differs from ${GOLDEN}:\n${out}")
        math(EXPR failures "${failures} + 1")
      endif()
    endif()
    if(DEFINED expected_output)
      set(written "")
      if(EXISTS "${OUTPUT}")
        file(READ "${OUTPUT}" written)
      endif()
      if(NOT "${written}" STREQUAL "${expected_output}")
        message(SEND_ERROR
          "${run}: ${OUTPUT} differs from ${OUTPUT_GOLDEN}:\n${written}")
        math(EXPR failures "${failures} + 1")
      endif()
    endif()
    set(expected_fragments ${fragments})
    if(NOT fragments AND NOT EXIT EQUAL 0 AND args)
      list(GET args 0 expected_fragments)
    endif()
    foreach(fragment IN LISTS expected_fragments)
      string(FIND "${err}" "${fragment}" at)
      if(at EQUAL -1)
        message(SEND_ERROR "${run}: stderr does not name ${fragment}:\n${err}")
        math(EXPR failures "${failures} + 1")
      endif()
    endforeach()
  endforeach()
  set(failures ${failures} PARENT_SCOPE)
endfunction()

if("${CASES}" STREQUAL "")
  check_case("")
else()
  string(REPLACE "|" ";" cases "${CASES}")
  foreach(case IN LISTS cases)
    check_case("${case}")
  endforeach()
endif()

if(failures GREATER 0)
  message(FATAL_ERROR "${failures} check(s) failed")
endif()
