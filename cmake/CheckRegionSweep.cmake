# Test script: drive the ccsvm CLI over region attribute x protocol
# and assert the region-based coherence axis behaves as designed:
#
#   - a run with an explicit all-coherent --region covering the whole
#     guest heap is byte-identical (sim + stats JSON sections) to a
#     run with no region flags at all, per protocol: the default
#     region class must be a true no-op (PR-4 behavior preserved)
#   - synth:stream with its buffer marked bypass (--region-hints)
#     validates and pays strictly fewer L2 fills, strictly fewer
#     L1 fills (misses) and strictly fewer directory-initiated
#     invalidations (Inv messages + inclusive-eviction recalls) than
#     the coherent run, per protocol. The config makes the coherent
#     baseline recall-bound: the footprint (1 MB) overflows a shrunken
#     L2 (4 x 64 KB), so the inclusive directory continuously recalls
#     L1 copies — exactly the traffic an uncacheable region never
#     generates — while the bypass run's only invalidations are the
#     done-flag handshake's
#   - the bypass run actually exercises the bypass machinery
#     (dirN.bypassReads/bypassWrites > 0, zero in the coherent run)
#   - a MESI override region over the heap under an MSI chip removes
#     the read-then-write upgrade penalty on the stream buffer
#     (strictly fewer L1 upgrades than plain MSI), and matmul's
#     read-mostly annotation (--region-hints) validates under every
#     protocol
#
# The protocol list comes from the driver's own --list-protocols, so
# this sweep cannot drift when a protocol is added.
#
# Usage: cmake -DCCSVM_DRIVER=<path> -DCCSVM_OUT_DIR=<dir>
#              -P CheckRegionSweep.cmake

include(${CMAKE_CURRENT_LIST_DIR}/CcsvmCheck.cmake)
ccsvm_require(CCSVM_DRIVER CCSVM_OUT_DIR)
file(MAKE_DIRECTORY ${CCSVM_OUT_DIR})

ccsvm_list(--list-protocols protocols)

# The guest heap's fixed virtual window (vm::AddressLayout).
set(heap_region heap:0x20000000:0x40000000)

# --- 1. default-region runs are byte-identical to no-region runs ----
set(identity --workload synth:stream --iters 4)
foreach(proto IN LISTS protocols)
  set(base ${CCSVM_OUT_DIR}/region_base_${proto}.json)
  set(coh ${CCSVM_OUT_DIR}/region_coherent_${proto}.json)
  ccsvm_run(${identity} --protocol ${proto} JSON ${base})
  ccsvm_run(${identity} --protocol ${proto}
            --region ${heap_region}:coherent JSON ${coh})
  file(READ ${base} base_doc)
  file(READ ${coh} coh_doc)
  # The machine section legitimately echoes the region table, so
  # compare the behavioral sections: sim summary and the full stats
  # registry, byte for byte.
  foreach(section sim stats)
    string(JSON a GET "${base_doc}" ${section})
    string(JSON b GET "${coh_doc}" ${section})
    if(NOT a STREQUAL b)
      message(FATAL_ERROR
              "--protocol ${proto}: explicit all-coherent region "
              "changed the ${section} section:\n--- no regions:\n"
              "${a}\n--- coherent region:\n${b}")
    endif()
  endforeach()
endforeach()

# --- 2. stream buffer bypass: fewer fills and invalidations ---------
set(stream_cfg --workload synth:stream --iters 1 --synth-threads 16
    --footprint-kb 1024 --stride 64 --l2-bank-kb 64)
foreach(proto IN LISTS protocols)
  set(coh ${CCSVM_OUT_DIR}/region_stream_coh_${proto}.json)
  set(byp ${CCSVM_OUT_DIR}/region_stream_byp_${proto}.json)
  ccsvm_run(${stream_cfg} --protocol ${proto} JSON ${coh})
  ccsvm_run(${stream_cfg} --protocol ${proto} --region-hints JSON ${byp})
  file(READ ${coh} coh_doc)
  file(READ ${byp} byp_doc)

  foreach(side coh byp)
    ccsvm_sum("${${side}_doc}" DIR fetches ${side}_fills)
    ccsvm_sum("${${side}_doc}" DIR recalls ${side}_recalls)
    ccsvm_sum("${${side}_doc}" DIR invsSent.cpu ${side}_invs_cpu)
    ccsvm_sum("${${side}_doc}" DIR invsSent.mttop ${side}_invs_mttop)
    ccsvm_sum("${${side}_doc}" DIR bypassReads ${side}_breads)
    ccsvm_sum("${${side}_doc}" DIR bypassWrites ${side}_bwrites)
    ccsvm_sum("${${side}_doc}" L1 misses ${side}_l1_fills)
    math(EXPR ${side}_dirinvs "${${side}_invs_cpu} + ${${side}_invs_mttop} + ${${side}_recalls}")
  endforeach()

  message(STATUS
          "stream/${proto}: fills coh=${coh_fills} byp=${byp_fills}; "
          "dir invs coh=${coh_dirinvs} byp=${byp_dirinvs}; "
          "L1 fills coh=${coh_l1_fills} byp=${byp_l1_fills}; "
          "bypass ops=${byp_breads}r/${byp_bwrites}w")

  if(NOT byp_fills LESS coh_fills)
    message(FATAL_ERROR "stream/${proto}: bypass L2 fills "
            "(${byp_fills}) not strictly fewer than coherent "
            "(${coh_fills})")
  endif()
  if(NOT byp_l1_fills LESS coh_l1_fills)
    message(FATAL_ERROR "stream/${proto}: bypass L1 fills "
            "(${byp_l1_fills}) not strictly fewer than coherent "
            "(${coh_l1_fills})")
  endif()
  if(NOT byp_dirinvs LESS coh_dirinvs)
    message(FATAL_ERROR "stream/${proto}: bypass directory "
            "invalidations (${byp_dirinvs}) not strictly fewer than "
            "coherent (${coh_dirinvs})")
  endif()
  if(byp_breads EQUAL 0 OR byp_bwrites EQUAL 0)
    message(FATAL_ERROR "stream/${proto}: bypass run issued no "
            "bypass ops (${byp_breads}r/${byp_bwrites}w)")
  endif()
  math(EXPR coh_bypass_ops "${coh_breads} + ${coh_bwrites}")
  if(NOT coh_bypass_ops EQUAL 0)
    message(FATAL_ERROR "stream/${proto}: coherent run issued "
            "${coh_bypass_ops} bypass ops")
  endif()
endforeach()

# --- 3. protocol-override regions ------------------------------------
# A MESI override over the heap under an MSI chip: stream's
# read-then-write loop gets clean-exclusive fills, so the explicit
# upgrade transactions MSI pays must strictly drop.
set(ovr_cfg --workload synth:stream --iters 2 --footprint-kb 64)
ccsvm_run(${ovr_cfg} --protocol msi
          JSON ${CCSVM_OUT_DIR}/region_msi_plain.json)
ccsvm_run(${ovr_cfg} --protocol msi --region ${heap_region}:mesi
          JSON ${CCSVM_OUT_DIR}/region_msi_override.json)
file(READ ${CCSVM_OUT_DIR}/region_msi_plain.json plain_doc)
file(READ ${CCSVM_OUT_DIR}/region_msi_override.json ovr_doc)
ccsvm_sum("${plain_doc}" L1 upgrades plain_upgrades)
ccsvm_sum("${ovr_doc}" L1 upgrades ovr_upgrades)
message(STATUS "override msi->mesi: upgrades plain=${plain_upgrades} "
               "override=${ovr_upgrades}")
if(NOT ovr_upgrades LESS plain_upgrades)
  message(FATAL_ERROR "MESI-override region under MSI did not reduce "
          "L1 upgrades (${ovr_upgrades} vs ${plain_upgrades})")
endif()

# --- 4. region misuse is handled, not crashed -----------------------
# Overlapping --region flags must exit 2 with a CLI diagnostic.
ccsvm_run(--workload synth:stream --iters 2
          --region a:0x20000000:0x2000:bypass
          --region b:0x20001000:0x2000:coherent
          EXIT 2 MATCHES "overlaps")

# An explicit region covering a workload buffer takes precedence over
# the workload's --region-hints annotation: the run must still
# validate (hint yields with a warning) instead of aborting on the
# region-table overlap assert.
ccsvm_run(--workload synth:stream --iters 2 --region-hints
          --region ${heap_region}:coherent
          JSON ${CCSVM_OUT_DIR}/region_precedence.json)

# matmul's read-mostly annotation must validate under every protocol.
foreach(proto IN LISTS protocols)
  ccsvm_run(--workload matmul --n 16 --protocol ${proto} --region-hints
            JSON ${CCSVM_OUT_DIR}/region_matmul_${proto}.json)
endforeach()

list(LENGTH protocols nproto)
message(STATUS "region sweep ok: ${nproto} protocols x "
               "{identity, bypass, override} all hold")
