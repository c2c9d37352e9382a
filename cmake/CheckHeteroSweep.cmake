# Test script: drive all 9 CPU x MTTOP protocol pairs through the
# driver on the migratory synth pattern and assert the heterogeneous
# axis behaves as designed:
#
#   - every pair validates and echoes cpu_protocol/mttop_protocol in
#     the JSON machine section
#   - homogeneous pairs are byte-identical to the corresponding
#     single --protocol runs (the cluster split must be invisible
#     when both sides run the same protocol)
#   - the headline mixed pair (CPU moesi, MTTOP msi) pays strictly
#     more MTTOP-side dirty-read writebacks than all-moesi (whose O
#     state absorbs every migratory hand-off)
#
# The protocol list comes from the driver's own --list-protocols, so
# this sweep cannot drift when a protocol is added.
#
# Usage: cmake -DCCSVM_DRIVER=<path> -DCCSVM_OUT_DIR=<dir>
#              -P CheckHeteroSweep.cmake

include(${CMAKE_CURRENT_LIST_DIR}/CcsvmCheck.cmake)
ccsvm_require(CCSVM_DRIVER CCSVM_OUT_DIR)
file(MAKE_DIRECTORY ${CCSVM_OUT_DIR})

ccsvm_list(--list-protocols protocols)
list(LENGTH protocols nproto)
if(nproto LESS 3)
  message(FATAL_ERROR "--list-protocols returned only ${nproto} "
                      "protocols: '${protocols}'")
endif()

set(workload --workload synth:migratory --iters 12)

# Single-protocol reference runs for the homogeneous comparison.
foreach(proto IN LISTS protocols)
  ccsvm_run(${workload} --protocol ${proto}
            JSON ${CCSVM_OUT_DIR}/hetero_single_${proto}.json)
endforeach()

# All CPU x MTTOP pairs.
foreach(cpu IN LISTS protocols)
  foreach(mttop IN LISTS protocols)
    set(json ${CCSVM_OUT_DIR}/hetero_${cpu}_${mttop}.json)
    ccsvm_run(${workload} --cpu-protocol ${cpu}
              --mttop-protocol ${mttop} JSON ${json})
    file(READ ${json} doc)
    string(JSON echoed_cpu GET "${doc}" machine cpu_protocol)
    string(JSON echoed_mttop GET "${doc}" machine mttop_protocol)
    if(NOT echoed_cpu STREQUAL cpu OR
       NOT echoed_mttop STREQUAL mttop)
      message(FATAL_ERROR "${cpu}/${mttop}: JSON echoes "
                          "'${echoed_cpu}/${echoed_mttop}'")
    endif()

    # Homogeneous pairs must be indistinguishable from the single
    # --protocol run, stat for stat, byte for byte.
    if(cpu STREQUAL mttop)
      execute_process(
        COMMAND ${CMAKE_COMMAND} -E compare_files ${json}
                ${CCSVM_OUT_DIR}/hetero_single_${cpu}.json
        RESULT_VARIABLE same)
      if(NOT same EQUAL 0)
        message(FATAL_ERROR "pair ${cpu}/${mttop} differs from the "
                            "single --protocol ${cpu} run")
      endif()
    endif()

    # Sum the per-cluster dirty-read writebacks over every bank.
    ccsvm_sum("${doc}" DIR sharingWb.mttop swb_mttop_${cpu}_${mttop})
    message(STATUS "${cpu}/${mttop}: mttop sharingWb="
                   "${swb_mttop_${cpu}_${mttop}}")
  endforeach()
endforeach()

# The migratory pattern's hand-offs live in the MTTOP cluster: with
# MOESI CPUs but MSI MTTOPs every hand-off read pays a writeback at
# the home, while all-moesi absorbs them all in the O state.
if(NOT swb_mttop_moesi_msi GREATER swb_mttop_moesi_moesi)
  message(FATAL_ERROR
          "cpu-moesi/mttop-msi migratory MTTOP writebacks "
          "(${swb_mttop_moesi_msi}) not strictly greater than "
          "all-moesi (${swb_mttop_moesi_moesi})")
endif()

message(STATUS "hetero sweep ok: ${nproto}x${nproto} pairs; "
               "migratory mttop sharingWb moesi/msi="
               "${swb_mttop_moesi_msi} vs moesi/moesi="
               "${swb_mttop_moesi_moesi}")
