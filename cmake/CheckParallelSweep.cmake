# Test script: the parallel sweep engine's determinism contract at
# the CLI boundary. A multi-point sweep (comma lists on --workload and
# --protocol) must emit a byte-identical JSON file whatever --jobs is:
#
#   - --jobs 1 (sequential, calling thread) vs --jobs 4 (worker pool)
#     over a 3-workload x 2-protocol grid: the two files must match
#     byte for byte. Any cross-instance mutable state, any
#     scheduling-order leak into the stats, any worker-count metadata
#     in the file shows up here as a diff.
#   - Every point in the sweep must pass its workload's validation
#     ("correct": true) and the grid must have exactly
#     |workloads| x |protocols| points in workload-major order.
#   - A single-point run through the sweep path must stay
#     byte-identical to the historical single-run JSON shape (no
#     "sweep" wrapper).
#
# Usage: cmake -DCCSVM_DRIVER=<path> -DCCSVM_OUT_DIR=<dir>
#              -P CheckParallelSweep.cmake

include(${CMAKE_CURRENT_LIST_DIR}/CcsvmCheck.cmake)
ccsvm_require(CCSVM_DRIVER CCSVM_OUT_DIR)
file(MAKE_DIRECTORY ${CCSVM_OUT_DIR})

set(workloads matmul synth:hot synth:migratory)
set(protocols msi moesi)
set(grid --workload matmul,synth:hot,synth:migratory
    --protocol msi,moesi --n 12 --iters 16)

# --- 1. byte-identity: --jobs 1 vs --jobs 4 -------------------------
set(seq ${CCSVM_OUT_DIR}/psweep_jobs1.json)
set(par ${CCSVM_OUT_DIR}/psweep_jobs4.json)
# The sweep document nests sim.correct per point; section 2 checks it.
ccsvm_run(${grid} --jobs 1 --json ${seq})
ccsvm_run(${grid} --jobs 4 --json ${par})

file(READ ${seq} seq_doc)
file(READ ${par} par_doc)
if(NOT seq_doc STREQUAL par_doc)
  message(FATAL_ERROR "sweep JSON differs between --jobs 1 and "
          "--jobs 4:\n--- jobs 1:\n${seq_doc}\n--- jobs 4:\n"
          "${par_doc}")
endif()

# --- 2. grid shape and per-point validation -------------------------
list(LENGTH workloads nwl)
list(LENGTH protocols nproto)
math(EXPR want_points "${nwl} * ${nproto}")
string(JSON got_points GET "${seq_doc}" sweep points)
if(NOT got_points EQUAL want_points)
  message(FATAL_ERROR "sweep reports ${got_points} points, want "
          "${want_points}")
endif()

set(idx 0)
foreach(wl IN LISTS workloads)
  foreach(proto IN LISTS protocols)
    string(JSON pt GET "${seq_doc}" points ${idx})
    string(JSON got_wl GET "${pt}" workload)
    string(JSON got_proto GET "${pt}" machine protocol)
    if(NOT got_wl STREQUAL wl OR NOT got_proto STREQUAL proto)
      message(FATAL_ERROR "point ${idx}: got ${got_wl}/${got_proto}, "
              "want ${wl}/${proto} (workload-major order)")
    endif()
    ccsvm_require_correct("${pt}" "point ${idx} (${wl}/${proto})")
    math(EXPR idx "${idx} + 1")
  endforeach()
endforeach()

# --- 3. single point keeps the historical JSON shape ----------------
set(single ${CCSVM_OUT_DIR}/psweep_single.json)
ccsvm_run(--workload matmul --n 12 --jobs 4 JSON ${single})
file(READ ${single} single_doc)
string(JSON sweep_key ERROR_VARIABLE no_sweep GET "${single_doc}"
       sweep)
if(no_sweep STREQUAL "NOTFOUND")
  message(FATAL_ERROR "single-point run emitted a sweep wrapper")
endif()
string(JSON wl GET "${single_doc}" workload)
if(NOT wl STREQUAL "matmul")
  message(FATAL_ERROR "single-point JSON lost its historical shape")
endif()

message(STATUS "parallel sweep ok: ${want_points} points "
               "byte-identical at --jobs 1 vs --jobs 4")
