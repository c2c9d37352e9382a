# Shared helpers for the driver ctests (cmake/Check*.cmake). Each
# script starts with
#
#   include(${CMAKE_CURRENT_LIST_DIR}/CcsvmCheck.cmake)
#   ccsvm_require(CCSVM_DRIVER ...)

# ccsvm_require(<var>...): fail unless every -D<var> was given.
function(ccsvm_require)
  foreach(var IN LISTS ARGN)
    if(NOT ${var})
      message(FATAL_ERROR "${var} is required")
    endif()
  endforeach()
endfunction()

# ccsvm_require_correct(<doc> <what>): fail unless the driver JSON
# <doc> (one point's document) passed its workload's validation.
function(ccsvm_require_correct doc what)
  string(JSON correct GET "${doc}" sim correct)
  if(NOT correct STREQUAL "ON" AND NOT correct STREQUAL "true")
    message(FATAL_ERROR "${what}: failed validation")
  endif()
endfunction()

# ccsvm_run([TOOL <exe>] [ENV <var>=<value>] <arg>... [EXIT <code>]
#           [MATCHES <regex>] [JSON <file>] [STDOUT <var>]
#           [STDERR <var>])
#
# Run `<exe> <arg>...` (the driver unless TOOL names another program,
# with ENV added to its environment) and fail unless it exits <code>
# (default 0) and, given MATCHES, its stderr matches <regex>. JSON
# appends `--json <file>` to the arguments and requires the written
# document's sim.correct. STDOUT/STDERR return the output.
function(ccsvm_run)
  cmake_parse_arguments(PARSE_ARGV 0 run ""
                        "TOOL;ENV;EXIT;MATCHES;JSON;STDOUT;STDERR" "")
  if(NOT DEFINED run_EXIT)
    set(run_EXIT 0)
  endif()
  if(NOT run_TOOL)
    set(run_TOOL ${CCSVM_DRIVER})
  endif()
  # Expand the arguments straight into execute_process: copying them
  # through set() would split an argument holding a ';'.
  set(env "")
  if(run_ENV)
    set(env ${CMAKE_COMMAND} -E env ${run_ENV})
  endif()
  set(json "")
  if(run_JSON)
    set(json --json ${run_JSON})
  endif()
  execute_process(
    COMMAND ${env} ${run_TOOL} ${run_UNPARSED_ARGUMENTS} ${json}
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  string(JOIN " " shown ${env} ${run_TOOL} ${run_UNPARSED_ARGUMENTS}
         ${json})
  if(NOT rc EQUAL run_EXIT)
    message(FATAL_ERROR "${shown}\nexited ${rc}, want ${run_EXIT}\n"
                        "stdout: ${out}\nstderr: ${err}")
  endif()
  if(DEFINED run_MATCHES AND NOT err MATCHES "${run_MATCHES}")
    message(FATAL_ERROR "${shown}\nstderr does not match "
                        "'${run_MATCHES}':\n${err}")
  endif()
  if(run_JSON)
    file(READ ${run_JSON} doc)
    ccsvm_require_correct("${doc}" "${shown}")
  endif()
  if(run_STDOUT)
    set(${run_STDOUT} "${out}" PARENT_SCOPE)
  endif()
  if(run_STDERR)
    set(${run_STDERR} "${err}" PARENT_SCOPE)
  endif()
endfunction()

# ccsvm_list(<flag> <var>): the names a --list-* flag prints, one per
# line, as a list — so a check tracks every enum value the driver
# knows.
function(ccsvm_list flag var)
  ccsvm_run(${flag} STDOUT out)
  string(STRIP "${out}" out)
  string(REPLACE "\n" ";" names "${out}")
  set(${var} ${names} PARENT_SCOPE)
endfunction()

# ccsvm_normalize(<var> <json-file>): the file's text with the echoed
# "sim_threads" set to 0, the one field that legitimately depends on
# the host thread count.
function(ccsvm_normalize var json)
  file(READ ${json} doc)
  string(REGEX REPLACE "\"sim_threads\": [0-9]+" "\"sim_threads\": 0"
         doc "${doc}")
  set(${var} "${doc}" PARENT_SCOPE)
endfunction()
