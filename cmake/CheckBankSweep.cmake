# Test script: drive the ccsvm CLI over the L2/directory bank layer's
# two policy seams (home-slice hash, replacement policy) and assert
# the axis behaves as designed:
#
#   - a run with the defaults spelled out (--slice-hash mod
#     --l2-replace lru) is byte-identical (sim + stats JSON sections)
#     to a run with no policy flags at all, for matmul and
#     synth:false under every protocol: the seams must be true no-ops
#     at the default point, and the default point's stats must be
#     independent of --sim-threads
#   - a power-of-two strided stream, the access class mod hashing
#     pins onto one bank, spreads under xorfold: the hottest bank's
#     peak directory occupancy strictly drops
#   - the region-aware replacer prefers evicting non-coherent lines:
#     on a region-annotated matmul squeezed into tiny banks, conflict
#     evictions of coherent lines strictly drop vs lru while the
#     pattern still conflicts (nonzero total evictions both ways)
#   - a committed conflict-pattern trace replays correctly under
#     every hash x replacer pair, with both lists harvested from the
#     driver's own --list-slice-hashes / --list-replacers so the
#     matrix cannot drift when a policy is added
#
# Usage: cmake -DCCSVM_DRIVER=<path> -DCCSVM_OUT_DIR=<dir>
#              -DCCSVM_TRACES_DIR=<dir> -P CheckBankSweep.cmake

include(${CMAKE_CURRENT_LIST_DIR}/CcsvmCheck.cmake)
ccsvm_require(CCSVM_DRIVER CCSVM_OUT_DIR CCSVM_TRACES_DIR)
file(MAKE_DIRECTORY ${CCSVM_OUT_DIR})

ccsvm_list(--list-protocols protocols)
ccsvm_list(--list-slice-hashes hashes)
ccsvm_list(--list-replacers replacers)

# Max of dirN.<suffix> over every bank of the machine in ${doc}.
function(max_dir_counter doc suffix out_var)
  string(JSON banks GET "${doc}" machine l2_banks)
  set(best 0)
  math(EXPR last "${banks} - 1")
  foreach(b RANGE ${last})
    string(JSON v GET "${doc}" stats counters dir${b}.${suffix})
    if(v GREATER best)
      set(best ${v})
    endif()
  endforeach()
  set(${out_var} ${best} PARENT_SCOPE)
endfunction()

# --- 1. explicit defaults are byte-identical to no flags at all -----
# The seams land in the hot path of every bank select and every
# victim choice; this is the proof they cost nothing behaviorally.
# "|"-separated so the flag lists survive CMake list flattening.
set(identity_workloads
    "--workload|matmul|--n|8"
    "--workload|synth:false|--iters|4")
foreach(proto IN LISTS protocols)
  foreach(wl_packed IN LISTS identity_workloads)
    string(REPLACE "|" ";" wl "${wl_packed}")
    string(REPLACE "|" "_" wl_tag "${wl_packed}")
    string(REGEX REPLACE "[^a-z0-9_]" "" wl_tag "${wl_tag}")
    set(base ${CCSVM_OUT_DIR}/bank_base_${proto}_${wl_tag}.json)
    set(expl ${CCSVM_OUT_DIR}/bank_expl_${proto}_${wl_tag}.json)
    ccsvm_run(${wl} --protocol ${proto} JSON ${base})
    ccsvm_run(${wl} --protocol ${proto}
              --slice-hash mod --l2-replace lru JSON ${expl})
    file(READ ${base} base_doc)
    file(READ ${expl} expl_doc)
    # The machine section legitimately echoes the policy names, so
    # compare the behavioral sections byte for byte.
    foreach(section sim stats)
      string(JSON a GET "${base_doc}" ${section})
      string(JSON b GET "${expl_doc}" ${section})
      if(NOT a STREQUAL b)
        message(FATAL_ERROR
                "${proto}/${wl_tag}: explicit --slice-hash mod "
                "--l2-replace lru changed the ${section} section:\n"
                "--- defaults:\n${a}\n--- explicit:\n${b}")
      endif()
    endforeach()
  endforeach()
endforeach()

# The default point's stats must also be --sim-threads invariant
# (the machine section echoes sim_threads, so compare stats only).
foreach(wl_packed IN LISTS identity_workloads)
  string(REPLACE "|" ";" wl "${wl_packed}")
  string(REPLACE "|" "_" wl_tag "${wl_packed}")
  string(REGEX REPLACE "[^a-z0-9_]" "" wl_tag "${wl_tag}")
  foreach(threads 1 4)
    set(json ${CCSVM_OUT_DIR}/bank_t${threads}_${wl_tag}.json)
    ccsvm_run(${wl} --slice-hash mod --l2-replace lru
              --sim-threads ${threads} JSON ${json})
    file(READ ${json} doc)
    string(JSON t${threads}_stats GET "${doc}" stats)
  endforeach()
  if(NOT t1_stats STREQUAL t4_stats)
    message(FATAL_ERROR "${wl_tag}: default bank policies are not "
            "--sim-threads invariant:\n--- 1 thread:\n${t1_stats}\n"
            "--- 4 threads:\n${t4_stats}")
  endif()
endforeach()

# --- 2. xorfold spreads the strided stream mod pins on one bank -----
# stride 256 = one access every 4 blocks: under mod with 4 banks the
# home bank is a pure function of the bits the stride holds constant.
foreach(hash mod xorfold)
  set(json ${CCSVM_OUT_DIR}/bank_skew_${hash}.json)
  ccsvm_run(--workload synth:stream --iters 1 --synth-threads 16
            --footprint-kb 1024 --stride 256 --slice-hash ${hash}
            JSON ${json})
  file(READ ${json} doc)
  max_dir_counter("${doc}" occupancy ${hash}_occ)
endforeach()
message(STATUS "strided stream peak bank occupancy: mod=${mod_occ} "
               "xorfold=${xorfold_occ}")
if(NOT xorfold_occ LESS mod_occ)
  message(FATAL_ERROR "xorfold did not lower the hottest bank's peak "
          "occupancy on a 256B-strided stream (${xorfold_occ} vs "
          "mod's ${mod_occ})")
endif()

# --- 3. the region replacer shields coherent lines under conflict ---
# Tiny banks (4 sets) put matmul's region-annotated read-mostly
# inputs and its coherent output in the same sets; lru evicts
# whatever is oldest, region spends the evictions on annotated lines.
foreach(rep lru region)
  set(json ${CCSVM_OUT_DIR}/bank_rep_${rep}.json)
  ccsvm_run(--workload matmul --n 32 --region-hints --l2-bank-kb 4
            --l2-replace ${rep} JSON ${json})
  file(READ ${json} doc)
  ccsvm_sum("${doc}" DIR conflictEvictions ${rep}_evs)
  ccsvm_sum("${doc}" DIR conflictEvictions.coherent ${rep}_coh)
endforeach()
message(STATUS "conflict evictions (coherent/total): "
               "lru=${lru_coh}/${lru_evs} "
               "region=${region_coh}/${region_evs}")
if(lru_evs EQUAL 0 OR region_evs EQUAL 0)
  message(FATAL_ERROR "the replacer probe config no longer "
          "conflicts (lru=${lru_evs}, region=${region_evs} total "
          "evictions); it proves nothing")
endif()
if(NOT region_coh LESS lru_coh)
  message(FATAL_ERROR "--l2-replace region did not lower coherent "
          "conflict evictions (${region_coh} vs lru's ${lru_coh})")
endif()

# --- 4. the committed conflict trace replays under every pair -------
set(trace ${CCSVM_TRACES_DIR}/synth_conflict.ccsvmt)
if(NOT EXISTS ${trace})
  message(FATAL_ERROR "missing committed trace ${trace}")
endif()
foreach(hash IN LISTS hashes)
  foreach(rep IN LISTS replacers)
    ccsvm_run(--workload replay --trace ${trace}
              --slice-hash ${hash} --l2-replace ${rep}
              JSON ${CCSVM_OUT_DIR}/bank_replay_${hash}_${rep}.json)
  endforeach()
endforeach()

list(LENGTH protocols nproto)
list(LENGTH hashes nhash)
list(LENGTH replacers nrep)
message(STATUS "bank sweep ok: identity x ${nproto} protocols, "
               "occupancy skew, region replacer, replay x "
               "${nhash} hashes x ${nrep} replacers all hold")
