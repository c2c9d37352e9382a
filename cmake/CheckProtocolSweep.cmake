# Test script: run the driver's matmul workload under every coherence
# protocol and assert the protocol axis behaves as designed:
#
#   - each run validates and echoes its protocol in the JSON summary
#   - msi (no E, no O) pays strictly more writebacks (off-chip plus
#     dirty-read writebacks) and at least as many invalidations as
#     moesi, whose Owned state absorbs dirty sharing
#
# The protocol list comes from the driver's own --list-protocols, so
# this sweep cannot drift when a protocol is added.
#
# Usage: cmake -DCCSVM_DRIVER=<path> -DCCSVM_OUT_DIR=<dir>
#              -P CheckProtocolSweep.cmake

include(${CMAKE_CURRENT_LIST_DIR}/CcsvmCheck.cmake)
ccsvm_require(CCSVM_DRIVER CCSVM_OUT_DIR)
file(MAKE_DIRECTORY ${CCSVM_OUT_DIR})

ccsvm_list(--list-protocols protocols)
foreach(proto IN LISTS protocols)
  set(json ${CCSVM_OUT_DIR}/protocol_sweep_${proto}.json)
  ccsvm_run(--workload matmul --n 16 --protocol ${proto} JSON ${json})
  file(READ ${json} doc)
  string(JSON echoed GET "${doc}" machine protocol)
  if(NOT echoed STREQUAL proto)
    message(FATAL_ERROR "${proto}: JSON echoes protocol '${echoed}'")
  endif()

  # Writebacks: off-chip dirty evictions plus the dirty-read
  # writebacks protocols without an O state pay at the home; and
  # invalidations received across every L1. The machine geometry
  # comes from the JSON itself, so the sums track any future change
  # to the driver defaults.
  ccsvm_sum("${doc}" DIR writebacks offchip_wb)
  ccsvm_sum("${doc}" DIR sharingWb sharing_wb)
  math(EXPR wb_${proto} "${offchip_wb} + ${sharing_wb}")
  ccsvm_sum("${doc}" L1 invs invs_${proto})
  message(STATUS "${proto}: wb=${wb_${proto}} invs=${invs_${proto}}")
endforeach()

if(NOT wb_msi GREATER wb_moesi)
  message(FATAL_ERROR "msi writebacks (${wb_msi}) not strictly "
                      "greater than moesi (${wb_moesi})")
endif()
if(invs_msi LESS invs_moesi)
  message(FATAL_ERROR "msi invalidations (${invs_msi}) fewer than "
                      "moesi (${invs_moesi})")
endif()
if(NOT wb_mesi GREATER wb_moesi)
  message(FATAL_ERROR "mesi writebacks (${wb_mesi}) not strictly "
                      "greater than moesi (${wb_moesi})")
endif()

message(STATUS "protocol sweep ok: wb msi=${wb_msi} mesi=${wb_mesi} "
               "moesi=${wb_moesi}; invs msi=${invs_msi} "
               "moesi=${invs_moesi}")
