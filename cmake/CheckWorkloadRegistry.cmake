# Test script: the driver's workload dispatch is registry-driven.
#
#   - --list-workloads exits 0 and names every paper workload and
#     every synth pattern
#   - every flag a workload lists as consumed (the [...] of
#     --list-workloads) is a flag --help documents: the driver derives
#     its ignored-flag warning from those lists, so a misspelt entry
#     would otherwise silently never warn
#   - an unknown --workload exits 2 and its error lists the registry
#     names (so the message cannot drift from the dispatch)
#   - a workload-parameter flag the selected workload ignores warns
#     on stderr but still runs
#
# Usage: cmake -DCCSVM_DRIVER=<path> -P CheckWorkloadRegistry.cmake

include(${CMAKE_CURRENT_LIST_DIR}/CcsvmCheck.cmake)
ccsvm_require(CCSVM_DRIVER)

ccsvm_run(--list-workloads STDOUT out)
foreach(name IN ITEMS matmul apsp barneshut spmm synth:padded
                      synth:false synth:hot synth:migratory
                      synth:prodcons synth:stream synth:ptrchase
                      synth:readmostly synth:conflict)
  if(NOT out MATCHES "${name}")
    message(FATAL_ERROR "--list-workloads is missing '${name}':\n"
                        "${out}")
  endif()
endforeach()

ccsvm_run(--help STDOUT help)
string(REGEX MATCHALL "\\[[-a-z0-9 ]*\\]" brackets "${out}")
string(REGEX MATCHALL "--[a-z][a-z0-9-]*" consumed "${brackets}")
list(REMOVE_DUPLICATES consumed)
list(LENGTH consumed n_consumed)
if(n_consumed LESS 10)
  message(FATAL_ERROR "only ${n_consumed} consumed flags in "
                      "--list-workloads; parse broke?\n${out}")
endif()
foreach(flag IN LISTS consumed)
  if(NOT help MATCHES "  ${flag}[ \n]")
    message(FATAL_ERROR "--list-workloads says a workload consumes "
                        "${flag}, but --help has no such flag")
  endif()
endforeach()

ccsvm_run(--workload definitely-not-a-workload EXIT 2
          MATCHES "unknown workload.*synth:migratory")

ccsvm_run(--workload synth:padded --iters 4 --density 0.5
          MATCHES "warning: --density is ignored")

message(STATUS "workload registry checks ok (${n_consumed} consumed "
               "flags documented)")
