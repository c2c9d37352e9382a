# Test script: run the ccsvm driver with --json and assert the output
# is valid JSON carrying simulated ticks and DRAM-transaction counters.
#
# Usage: cmake -DCCSVM_DRIVER=<path> -DCCSVM_JSON_OUT=<path>
#              -P CheckDriverJson.cmake

include(${CMAKE_CURRENT_LIST_DIR}/CcsvmCheck.cmake)
ccsvm_require(CCSVM_DRIVER CCSVM_JSON_OUT)

# JSON also requires the workload output to pass validation.
ccsvm_run(--workload matmul --n 8 JSON ${CCSVM_JSON_OUT})
file(READ ${CCSVM_JSON_OUT} doc)

# string(JSON ...) hard-errors on malformed JSON or a missing key,
# which is exactly the assertion we want.
string(JSON ticks GET "${doc}" sim ticks)
string(JSON dram GET "${doc}" sim dram_accesses)
string(JSON dram_reads GET "${doc}" stats counters dram.reads)
string(JSON sim_ticks_counter GET "${doc}" stats counters sim.ticks)

if(ticks LESS_EQUAL 0)
  message(FATAL_ERROR "sim.ticks not positive: ${ticks}")
endif()
if(NOT ticks EQUAL sim_ticks_counter)
  message(FATAL_ERROR "sim.ticks counter (${sim_ticks_counter}) "
                      "disagrees with summary (${ticks})")
endif()

# --- --json - : machine-parseable stdout ----------------------------
# --iters is a synth-only flag, so matmul warns about it; the warning
# (and the run summary) must land on stderr, leaving stdout pure JSON.
ccsvm_run(--workload matmul --n 8 --iters 4 --json -
          STDOUT stdout_doc STDERR err)
string(JSON stdout_ticks GET "${stdout_doc}" sim ticks)
if(NOT stdout_ticks EQUAL ticks)
  message(FATAL_ERROR "--json - ticks (${stdout_ticks}) disagrees "
                      "with --json FILE (${ticks})")
endif()
if(NOT err MATCHES "warning")
  message(FATAL_ERROR "ignored-flag warning missing from stderr: "
                      "${err}")
endif()
if(NOT err MATCHES "workload=matmul")
  message(FATAL_ERROR "run summary not on stderr under --json -: "
                      "${err}")
endif()
if(stdout_doc MATCHES "warning" OR stdout_doc MATCHES "workload=")
  message(FATAL_ERROR "human-facing output leaked into stdout JSON:\n"
                      "${stdout_doc}")
endif()

message(STATUS "driver JSON ok: ticks=${ticks} dram=${dram} "
               "dram.reads=${dram_reads}; --json - stdout is pure "
               "JSON")
