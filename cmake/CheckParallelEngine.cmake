# Test script: the partitioned event engine's determinism contract at
# the CLI boundary. One simulation advanced by conservative time
# windows must emit byte-identical JSON whatever --sim-threads is:
#
#   - --sim-threads 1 (windows run inline on the calling thread) vs
#     --sim-threads 2 (one worker holds every partition the caller
#     does not) vs --sim-threads 4 (worker pool) across a
#     {matmul, synth:false, barneshut, matmul on 62 L2 banks,
#     synth:migratory, synth:ptrchase} x {msi, moesi} grid. barneshut
#     is the benchmark's threaded workload; 62 banks make 65 engine
#     partitions (every stat has one slot per partition, whatever the
#     count); migratory is the barrier-bound workload, about four
#     events per window; ptrchase's MTTOP page walks and DRAM reads
#     send walker and DRAM replies across partitions. The
#     partition/window schedule is the same at any thread count, and
#     each source partition has one post list, written only by the
#     thread running the source and drained at the barrier source by
#     source in post order, so every (when, priority) key commits its
#     local events, then its posts by (source partition, post order). Every tick count and every
#     stat must therefore match byte for byte; any host-interleaving
#     leak shows up here as a diff. Only the echoed "sim_threads"
#     field may differ, and is normalized away before comparing.
#   - Every point must pass its workload's validation.
#   - CCSVM_SIM_THREADS=4 in the environment with no --sim-threads
#     flag must behave like the flag (same normalized bytes), since
#     that is how the test suites opt whole binaries into the
#     threaded engine.
#   - --sim-threads 2147483647 runs one worker per partition (a
#     window never has more queues to hand out) and must match the
#     --sim-threads 1 bytes, not allocate a pool per requested thread.
#
# Usage: cmake -DCCSVM_DRIVER=<path> -DCCSVM_OUT_DIR=<dir>
#              -P CheckParallelEngine.cmake

include(${CMAKE_CURRENT_LIST_DIR}/CcsvmCheck.cmake)
ccsvm_require(CCSVM_DRIVER CCSVM_OUT_DIR)
file(MAKE_DIRECTORY ${CCSVM_OUT_DIR})

# One grid point per line: a tag, then the workload and its flags.
set(points
  "matmul --workload matmul --n 16 --iters 16"
  "synth_false --workload synth:false --n 16 --iters 16"
  "barneshut --workload barneshut --bodies 32 --steps 1"
  "banks62 --workload matmul --n 16 --l2-banks 62"
  "migratory --workload synth:migratory --iters 64"
  "ptrchase --workload synth:ptrchase --footprint-kb 512 --iters 1")
foreach(point IN LISTS points)
  separate_arguments(point)
  list(POP_FRONT point name)
  foreach(proto msi moesi)
    set(tag "${name}_${proto}")
    foreach(threads 1 2 4)
      set(json ${CCSVM_OUT_DIR}/pengine_${tag}_t${threads}.json)
      ccsvm_run(${point} --protocol ${proto}
                --sim-threads ${threads} JSON ${json})
      ccsvm_normalize(doc_t${threads} ${json})
    endforeach()
    foreach(threads 2 4)
      if(NOT doc_t1 STREQUAL doc_t${threads})
        message(FATAL_ERROR "${tag}: JSON differs between "
                "--sim-threads 1 and --sim-threads ${threads}:\n"
                "--- threads 1:\n${doc_t1}\n"
                "--- threads ${threads}:\n${doc_t${threads}}")
      endif()
    endforeach()
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

# --- a thread count far above the partition count ------------------
set(big_json ${CCSVM_OUT_DIR}/pengine_matmul_msi_tmax.json)
ccsvm_run(--workload matmul --n 16 --iters 16 --protocol msi
          --sim-threads 2147483647 JSON ${big_json})
ccsvm_normalize(big_doc ${big_json})
ccsvm_normalize(serial_doc ${CCSVM_OUT_DIR}/pengine_matmul_msi_t1.json)
if(NOT big_doc STREQUAL serial_doc)
  message(FATAL_ERROR "--sim-threads 2147483647 differs from "
          "--sim-threads 1:\n--- max:\n${big_doc}\n"
          "--- serial:\n${serial_doc}")
endif()

message(STATUS "parallel engine ok: 12 grid points byte-identical "
               "at --sim-threads 1 vs 2 vs 4 (+ env knob, + INT_MAX "
               "threads)")
