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
#     must exit 2, and so must a trace with one byte flipped mid-body
#     ("cannot read trace")
#   - with python3 on PATH: a well-formed trace that replay rejects
#     (its CPU stream relabelled mttop, or its first premapped frame
#     moved one page) validates, and the driver exits 2 ("cannot
#     replay trace")
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

# One byte flipped mid-body leaves the header intact: the driver must
# parse the whole file before the run and exit 2, never abort. CMake
# cannot write binary data, so dd overwrites the byte in a copy.
set(flipped ${CCSVM_OUT_DIR}/replay_flipped.ccsvmt)
configure_file(${fresh_trace} ${flipped} COPYONLY)
file(SIZE ${flipped} size)
math(EXPR mid "${size} / 2")
file(READ ${flipped} old_byte OFFSET ${mid} LIMIT 1 HEX)
set(new_byte X)
if(old_byte STREQUAL "58") # already 'X'
  set(new_byte Y)
endif()
file(WRITE ${CCSVM_OUT_DIR}/replay_flip_byte "${new_byte}")
ccsvm_run(TOOL dd if=${CCSVM_OUT_DIR}/replay_flip_byte of=${flipped}
          bs=1 seek=${mid} count=1 conv=notrunc)
ccsvm_run(TOOL ${CCSVM_TRACE_TOOL} validate ${flipped} EXIT 1)
ccsvm_run(--workload replay --trace ${flipped}
          EXIT 2 MATCHES "cannot read trace")

# Two well-formed traces that replay itself rejects: the first
# StreamDef (the CPU stream) relabelled mttop leaves no CPU op stream,
# and a first premapped frame one page later makes the frame
# allocator diverge. Both parse and validate; the driver must exit 2,
# never abort. python3 patches the bytes and recomputes the FNV-1a
# checksum (docs/TRACE_FORMAT.md).
set(patch_trace [=[
import sys
src, dst, case = sys.argv[1:]
b = bytearray(open(src, 'rb').read())
def varint(p):
    v, shift = 0, 0
    while True:
        v |= (b[p] & 0x7f) << shift
        shift += 7
        p += 1
        if b[p - 1] < 0x80:
            return v, p
def encode(v):
    out = bytearray()
    while v >= 0x80:
        out.append(v & 0x7f | 0x80)
        v >>= 7
    out.append(v)
    return out
n, p = varint(64)
for _ in range(n):
    k, p = varint(p)
    p = varint(varint(p + k)[1])[1] + 2
n, p = varint(p)
assert n > 0, 'no premapped pages'
if case == 'premap':
    delta, q = varint(p)
    b[p:q] = encode(delta + 4096)
else:
    for _ in range(n):
        p = varint(varint(p)[1])[1] + 1
    assert b[p:p + 3] == bytes([1, 0, 0]), 'first StreamDef is not cpu'
    b[p + 2] = 1
h = 0xcbf29ce484222325
for x in b[:-8]:
    h = (h ^ x) * 0x100000001b3 % 2**64
b[-8:] = h.to_bytes(8, 'little')
open(dst, 'wb').write(b)
]=])
find_program(CCSVM_PYTHON3 python3)
if(CCSVM_PYTHON3)
  foreach(case cpu_stream premap)
    set(patched ${CCSVM_OUT_DIR}/replay_bad_${case}.ccsvmt)
    ccsvm_run(TOOL ${CCSVM_PYTHON3} -c "${patch_trace}" ${fresh_trace}
              ${patched} ${case})
    ccsvm_run(TOOL ${CCSVM_TRACE_TOOL} validate ${patched})
    ccsvm_run(--workload replay --trace ${patched}
              EXIT 2 MATCHES "cannot replay trace")
  endforeach()
else()
  message(STATUS "python3 not found; replay-rejection cases skipped")
endif()

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
