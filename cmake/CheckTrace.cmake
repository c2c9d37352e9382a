# Test script: the observability layer's contract at the CLI boundary.
#
#   - A traced run exports Chrome trace-event JSON that is
#     byte-identical at --sim-threads 1 and --sim-threads 4 (the
#     per-partition rings merge in (when, srcPart, srcSeq) order at
#     window barriers, so host interleaving must not leak into the
#     document).
#   - The trace parses: cmake's string(JSON) always, python3's
#     json.load when an interpreter is on PATH (closer to what
#     Perfetto's importer accepts).
#   - Tracing is observationally free: the stats JSON of a traced run
#     is byte-identical to the same run without --trace-out.
#   - --sample-interval populates a "series" section whose samples
#     are identical at any thread count.
#   - --trace-categories records the categories it names and no
#     other.
#   - The per-class latency histograms (latency.{cpu,mttop}.mem with
#     p50/p90/p99) are present for matmul and two synthetic patterns.
#
# Usage: cmake -DCCSVM_DRIVER=<path> -DCCSVM_OUT_DIR=<dir>
#              -P CheckTrace.cmake

include(${CMAKE_CURRENT_LIST_DIR}/CcsvmCheck.cmake)
ccsvm_require(CCSVM_DRIVER CCSVM_OUT_DIR)
file(MAKE_DIRECTORY ${CCSVM_OUT_DIR})

foreach(threads 1 4)
  set(tr${threads} ${CCSVM_OUT_DIR}/trace_t${threads}.json)
  set(j${threads} ${CCSVM_OUT_DIR}/trace_stats_t${threads}.json)
  ccsvm_run(--workload matmul --n 8 --sim-threads ${threads}
            --sample-interval 500000 --trace-out ${tr${threads}}
            JSON ${j${threads}})
endforeach()

# --- trace byte-identity at any thread count ------------------------
file(READ ${tr1} trace1)
file(READ ${tr4} trace4)
if(NOT trace1 STREQUAL trace4)
  message(FATAL_ERROR "trace JSON differs between --sim-threads 1 "
          "and --sim-threads 4")
endif()

# --- the trace parses and is non-trivial ----------------------------
string(JSON n_events LENGTH "${trace1}" traceEvents)
if(n_events LESS_EQUAL 1)
  message(FATAL_ERROR "trace has no events: ${n_events}")
endif()
string(JSON recorded GET "${trace1}" otherData recorded)
if(recorded LESS_EQUAL 0)
  message(FATAL_ERROR "trace records no events: ${recorded}")
endif()

find_program(CCSVM_PYTHON3 python3)
if(CCSVM_PYTHON3)
  ccsvm_run(TOOL ${CCSVM_PYTHON3} -c
            "import json,sys; d=json.load(open(sys.argv[1])); \
assert d['traceEvents'], 'empty traceEvents'"
            ${tr1})
else()
  message(STATUS "python3 not found; cmake-only trace parse")
endif()

# --- stats unperturbed by tracing -----------------------------------
# Same point, same thread count, no --trace-out (sampling stays on so
# the documents are comparable): every byte must match.
set(joff ${CCSVM_OUT_DIR}/trace_stats_off.json)
ccsvm_run(--workload matmul --n 8 --sim-threads 1
          --sample-interval 500000 JSON ${joff})
file(READ ${j1} traced_doc)
file(READ ${joff} untraced_doc)
if(NOT traced_doc STREQUAL untraced_doc)
  message(FATAL_ERROR "stats JSON changes when tracing is on:\n"
          "--- traced:\n${traced_doc}\n"
          "--- untraced:\n${untraced_doc}")
endif()

# --- the time series ------------------------------------------------
string(JSON interval GET "${traced_doc}" series interval)
if(NOT interval EQUAL 500000)
  message(FATAL_ERROR "series.interval not echoed: ${interval}")
endif()
string(JSON n_samples LENGTH "${traced_doc}" series samples)
if(n_samples LESS_EQUAL 0)
  message(FATAL_ERROR "series has no samples")
endif()
string(JSON s0_t GET "${traced_doc}" series samples 0 t)
string(JSON s0_dram GET "${traced_doc}" series samples 0 dram)
if(s0_t LESS_EQUAL 0)
  message(FATAL_ERROR "first sample has no timestamp: ${s0_t}")
endif()
# Identical at 4 threads (already implied by the byte compare of j1
# vs j4 modulo the echoed sim_threads field).
ccsvm_normalize(doc4 ${j4})
ccsvm_normalize(doc1 ${j1})
if(NOT doc1 STREQUAL doc4)
  message(FATAL_ERROR "stats/series JSON differs between "
          "--sim-threads 1 and 4")
endif()

# --- a category subset ----------------------------------------------
set(trsub ${CCSVM_OUT_DIR}/trace_coh_noc.json)
ccsvm_run(--workload synth:migratory --iters 16 --trace-out ${trsub}
          --trace-categories coh,noc)
file(READ ${trsub} sub)
foreach(cat coh noc vm kernel engine)
  string(FIND "${sub}" "\"cat\": \"${cat}\"" at)
  if(cat MATCHES "^(coh|noc)$" AND at EQUAL -1)
    message(FATAL_ERROR "--trace-categories coh,noc recorded no "
            "${cat} event")
  elseif(NOT cat MATCHES "^(coh|noc)$" AND NOT at EQUAL -1)
    message(FATAL_ERROR "--trace-categories coh,noc recorded a "
            "${cat} event")
  endif()
endforeach()

# --- latency histograms across workload classes ---------------------
foreach(wl matmul synth:false synth:stream)
  string(REPLACE ":" "_" tag "${wl}")
  set(json ${CCSVM_OUT_DIR}/trace_histo_${tag}.json)
  ccsvm_run(--workload ${wl} --n 8 --iters 16 JSON ${json})
  file(READ ${json} doc)
  foreach(cls cpu mttop)
    string(JSON cnt GET "${doc}" stats histograms
           latency.${cls}.mem count)
    string(JSON p50 GET "${doc}" stats histograms
           latency.${cls}.mem p50)
    string(JSON p90 GET "${doc}" stats histograms
           latency.${cls}.mem p90)
    string(JSON p99 GET "${doc}" stats histograms
           latency.${cls}.mem p99)
  endforeach()
  # Every workload in this list drives at least one of the two core
  # classes through its L1s.
  string(JSON cpu_cnt GET "${doc}" stats histograms
         latency.cpu.mem count)
  string(JSON mttop_cnt GET "${doc}" stats histograms
         latency.mttop.mem count)
  if(cpu_cnt EQUAL 0 AND mttop_cnt EQUAL 0)
    message(FATAL_ERROR "${wl}: no memory latency recorded")
  endif()
endforeach()

message(STATUS "observability ok: trace byte-identical at "
               "--sim-threads 1 vs 4 (${n_events} rows, "
               "${recorded} recorded), stats unperturbed, "
               "${n_samples} series samples, histograms present")
