# Test script: drive the synthetic coherence patterns through the
# ccsvm driver and assert the discrimination they exist to provide:
#
#   - every synth:<pattern> validates against its golden model under
#     every protocol (exit code 0)
#   - migratory dirty writebacks (dirN.writebacks + dirN.sharingWb):
#     msi strictly greater than moesi
#   - false-sharing L1 invalidations at least 10x the padded baseline
#
# The patterns are the synth: names of the driver's --list-workloads
# and the protocols its --list-protocols, so this sweep cannot drift
# when either is added.
#
# Usage: cmake -DCCSVM_DRIVER=<path> -DCCSVM_OUT_DIR=<dir>
#              -P CheckSynthSweep.cmake

include(${CMAKE_CURRENT_LIST_DIR}/CcsvmCheck.cmake)
ccsvm_require(CCSVM_DRIVER CCSVM_OUT_DIR)
file(MAKE_DIRECTORY ${CCSVM_OUT_DIR})

# Aggregate dir writebacks+sharingWb and L1 invs from a driver JSON.
function(synth_metrics json wb_out invs_out)
  file(READ ${json} doc)
  ccsvm_sum("${doc}" DIR writebacks offchip_wb)
  ccsvm_sum("${doc}" DIR sharingWb sharing_wb)
  math(EXPR wb "${offchip_wb} + ${sharing_wb}")
  ccsvm_sum("${doc}" L1 invs invs)
  set(${wb_out} ${wb} PARENT_SCOPE)
  set(${invs_out} ${invs} PARENT_SCOPE)
endfunction()

ccsvm_list(--list-protocols protocols)
ccsvm_list(--list-workloads workloads)
set(patterns "")
foreach(line IN LISTS workloads)
  if(line MATCHES "^ *synth:([^ ]+)")
    list(APPEND patterns ${CMAKE_MATCH_1})
  endif()
endforeach()
if(NOT patterns)
  message(FATAL_ERROR "--list-workloads names no synth: pattern")
endif()

# One validated run per (pattern, protocol); iterations kept small —
# the assertions below only need the traffic shape, not its scale.
foreach(pattern IN LISTS patterns)
  foreach(proto IN LISTS protocols)
    ccsvm_run(--workload synth:${pattern} --iters 48 --protocol ${proto}
              JSON ${CCSVM_OUT_DIR}/synth_${pattern}_${proto}.json)
  endforeach()
endforeach()

synth_metrics(${CCSVM_OUT_DIR}/synth_migratory_msi.json
              wb_mig_msi invs_mig_msi)
synth_metrics(${CCSVM_OUT_DIR}/synth_migratory_mesi.json
              wb_mig_mesi invs_mig_mesi)
synth_metrics(${CCSVM_OUT_DIR}/synth_migratory_moesi.json
              wb_mig_moesi invs_mig_moesi)
if(NOT wb_mig_msi GREATER wb_mig_moesi)
  message(FATAL_ERROR "migratory writebacks: msi (${wb_mig_msi}) "
                      "not strictly greater than moesi "
                      "(${wb_mig_moesi})")
endif()
if(wb_mig_mesi LESS wb_mig_moesi)
  message(FATAL_ERROR "migratory writebacks: mesi (${wb_mig_mesi}) "
                      "fewer than moesi (${wb_mig_moesi})")
endif()

synth_metrics(${CCSVM_OUT_DIR}/synth_false_moesi.json
              wb_false invs_false)
synth_metrics(${CCSVM_OUT_DIR}/synth_padded_moesi.json
              wb_padded invs_padded)
math(EXPR invs_padded_x10 "${invs_padded} * 10")
if(invs_false LESS invs_padded_x10)
  message(FATAL_ERROR "false-sharing invalidations (${invs_false}) "
                      "not >= 10x padded (${invs_padded})")
endif()

message(STATUS "synth sweep ok: migratory wb msi=${wb_mig_msi} "
               "mesi=${wb_mig_mesi} moesi=${wb_mig_moesi}; invs "
               "false=${invs_false} padded=${invs_padded}")
