# Test script: the trace capture + replay contract at the CLI
# boundary (docs/TRACE_FORMAT.md):
#
#   - capture a synth:false run and a matmul run with --capture-out,
#     replay each with --workload replay --trace, and require the
#     "sim" + "stats" JSON sections byte-identical to the capture
#     run's (the workload/params echo legitimately differs)
#   - replay at --sim-threads 4 must match the --sim-threads 1 bytes
#   - the capture file itself must be byte-identical at
#     --sim-threads 1 vs 4 (records flush at window barriers)
#   - ccsvm-trace inspect/validate/stats must accept the fresh trace
#   - a shape-mismatched replay (--cpu-cores 2) must exit 2 with a
#     "machine shape" diagnostic; --workload replay without --trace
#     must exit 2
#   - every committed trace under CCSVM_TRACES_DIR (optional) must
#     pass ccsvm-trace validate and replay cleanly at default shape.
#
# Usage: cmake -DCCSVM_DRIVER=<path> -DCCSVM_TRACE_TOOL=<path>
#              -DCCSVM_OUT_DIR=<dir> [-DCCSVM_TRACES_DIR=<dir>]
#              -P CheckReplay.cmake

include(${CMAKE_CURRENT_LIST_DIR}/CcsvmCheck.cmake)
ccsvm_require(CCSVM_DRIVER CCSVM_TRACE_TOOL CCSVM_OUT_DIR)
file(MAKE_DIRECTORY ${CCSVM_OUT_DIR})

# The simulation result: everything in the JSON from the "sim"
# summary on (summary + full stats registry), with the echoed
# sim_threads normalized. The leading workload/params echo is the one
# part that legitimately differs between a capture run and its replay.
function(sim_and_stats var json)
  ccsvm_normalize(doc ${json})
  string(FIND "${doc}" "\"sim\": {" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "${json} has no sim section:\n${doc}")
  endif()
  string(SUBSTRING "${doc}" ${at} -1 tail)
  set(${var} "${tail}" PARENT_SCOPE)
endfunction()

# --- capture -> replay, per workload --------------------------------

function(check_workload tag)
  set(wl_flags ${ARGN})
  set(trace ${CCSVM_OUT_DIR}/replay_${tag}.ccsvmt)
  set(cap_json ${CCSVM_OUT_DIR}/replay_${tag}_cap.json)
  ccsvm_run(${wl_flags} --capture-out ${trace} JSON ${cap_json})

  foreach(threads 1 4)
    set(rep_json ${CCSVM_OUT_DIR}/replay_${tag}_t${threads}.json)
    ccsvm_run(--workload replay --trace ${trace}
              --sim-threads ${threads} JSON ${rep_json})
    sim_and_stats(cap_doc ${cap_json})
    sim_and_stats(rep_doc ${rep_json})
    if(NOT cap_doc STREQUAL rep_doc)
      message(FATAL_ERROR "${tag}: replay at --sim-threads "
              "${threads} diverged from the capture run:\n"
              "--- capture:\n${cap_doc}\n--- replay:\n${rep_doc}")
    endif()
  endforeach()

  # The trace file itself is part of the determinism contract.
  set(trace4 ${CCSVM_OUT_DIR}/replay_${tag}_t4.ccsvmt)
  ccsvm_run(${wl_flags} --capture-out ${trace4} --sim-threads 4)
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files ${trace} ${trace4}
    RESULT_VARIABLE same)
  if(NOT same EQUAL 0)
    message(FATAL_ERROR "${tag}: capture file differs between "
            "--sim-threads 1 and 4")
  endif()

  # The inspection tool must accept what the capture path wrote.
  ccsvm_run(TOOL ${CCSVM_TRACE_TOOL} validate ${trace})
  ccsvm_run(TOOL ${CCSVM_TRACE_TOOL} inspect ${trace})
  ccsvm_run(TOOL ${CCSVM_TRACE_TOOL} stats ${trace} STDOUT out)
  if(NOT out MATCHES "by kind:")
    message(FATAL_ERROR "${tag}: ccsvm-trace stats lacks 'by kind:':\n"
            "${out}")
  endif()
  set(fresh_trace ${trace} PARENT_SCOPE)
endfunction()

check_workload(synth_false --workload synth:false --iters 12)
check_workload(matmul --workload matmul --n 8)

# --- CLI error paths ------------------------------------------------

ccsvm_run(--workload replay --trace ${fresh_trace} --cpu-cores 2
          EXIT 2 MATCHES "machine shape")
ccsvm_run(--workload replay EXIT 2 MATCHES "--trace")
ccsvm_run(TOOL ${CCSVM_TRACE_TOOL}
          validate ${CCSVM_OUT_DIR}/replay_nonexistent.ccsvmt EXIT 1)

# --- the committed trace library ------------------------------------

if(CCSVM_TRACES_DIR)
  file(GLOB committed ${CCSVM_TRACES_DIR}/*.ccsvmt)
  list(LENGTH committed n)
  if(n EQUAL 0)
    message(FATAL_ERROR "no .ccsvmt traces under ${CCSVM_TRACES_DIR}")
  endif()
  foreach(trace IN LISTS committed)
    ccsvm_run(TOOL ${CCSVM_TRACE_TOOL} validate ${trace})
    ccsvm_run(--workload replay --trace ${trace})
  endforeach()
  message(STATUS "trace library ok: ${n} committed traces validate "
                 "and replay")
endif()

message(STATUS "replay ok: capture/replay byte-identical for 2 "
               "workloads at --sim-threads 1 and 4")
