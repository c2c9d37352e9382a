# Test script: the partitioned event engine's determinism contract at
# the CLI boundary. One simulation advanced by conservative time
# windows must emit byte-identical JSON whatever --sim-threads is:
#
#   - --sim-threads 1 (windows run inline on the calling thread) vs
#     --sim-threads 4 (worker pool) across a
#     {matmul, synth:false} x {msi, moesi} grid. The partition/window
#     schedule is the same at any thread count and cross-partition
#     mailboxes commit in sorted (when, priority, srcPart, srcSeq)
#     order, so every tick count and every stat must match byte for
#     byte; any host-interleaving leak shows up here as a diff. Only
#     the echoed "sim_threads" field may differ, and is normalized
#     away before comparing.
#   - Every point must pass its workload's validation.
#   - CCSVM_SIM_THREADS=4 in the environment with no --sim-threads
#     flag must behave like the flag (same normalized bytes), since
#     that is how the test suites opt whole binaries into the
#     threaded engine.
#
# Usage: cmake -DCCSVM_DRIVER=<path> -DCCSVM_OUT_DIR=<dir>
#              -P CheckParallelEngine.cmake

include(${CMAKE_CURRENT_LIST_DIR}/CcsvmCheck.cmake)
ccsvm_require(CCSVM_DRIVER CCSVM_OUT_DIR)
file(MAKE_DIRECTORY ${CCSVM_OUT_DIR})

foreach(wl matmul synth:false)
  foreach(proto msi moesi)
    string(REPLACE ":" "_" tag "${wl}_${proto}")
    foreach(threads 1 4)
      set(json ${CCSVM_OUT_DIR}/pengine_${tag}_t${threads}.json)
      ccsvm_run(--workload ${wl} --protocol ${proto} --n 16 --iters 16
                --sim-threads ${threads} JSON ${json})
      ccsvm_normalize(doc_t${threads} ${json})
    endforeach()
    if(NOT doc_t1 STREQUAL doc_t4)
      message(FATAL_ERROR "${wl}/${proto}: JSON differs between "
              "--sim-threads 1 and --sim-threads 4:\n"
              "--- threads 1:\n${doc_t1}\n"
              "--- threads 4:\n${doc_t4}")
    endif()
    string(JSON threads GET "${doc_t4}" machine sim_threads)
  endforeach()
endforeach()

# --- the CCSVM_SIM_THREADS environment knob -------------------------
set(env_json ${CCSVM_OUT_DIR}/pengine_env_t4.json)
ccsvm_run(ENV CCSVM_SIM_THREADS=4
          --workload matmul --protocol msi --n 16 --iters 16
          JSON ${env_json})
ccsvm_normalize(env_doc ${env_json})
ccsvm_normalize(flag_doc ${CCSVM_OUT_DIR}/pengine_matmul_msi_t4.json)
if(NOT env_doc STREQUAL flag_doc)
  message(FATAL_ERROR "CCSVM_SIM_THREADS=4 differs from "
          "--sim-threads 4:\n--- env:\n${env_doc}\n"
          "--- flag:\n${flag_doc}")
endif()
file(READ ${env_json} env_raw)
string(REGEX MATCH "\"sim_threads\": 4" echoed "${env_raw}")
if(NOT echoed)
  message(FATAL_ERROR "CCSVM_SIM_THREADS=4 not echoed in the JSON "
          "machine section:\n${env_raw}")
endif()

message(STATUS "parallel engine ok: 4 grid points byte-identical "
               "at --sim-threads 1 vs 4 (+ env knob)")
