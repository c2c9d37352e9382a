# Test script: the driver's contract for every configuration axis.
#
#   - every value of every enum flag runs, validates and is echoed
#     under "machine"; the values come from the driver's own --list-*
#     flags, so a new value is checked without an edit here
#   - spelling out a default changes no byte of the JSON but the
#     echoed region table
#   - the committed conflict trace replays under every slice-hash x
#     replacer pair
#
# What each axis does to the simulation is asserted in gtest
# (tests/axes_test.cc).
#
# Usage: cmake -DCCSVM_DRIVER=<path> -DCCSVM_OUT_DIR=<dir>
#              -DCCSVM_TRACES_DIR=<dir> -P CheckDriverAxes.cmake

include(${CMAKE_CURRENT_LIST_DIR}/CcsvmCheck.cmake)
ccsvm_require(CCSVM_DRIVER CCSVM_OUT_DIR CCSVM_TRACES_DIR)
set(out ${CCSVM_OUT_DIR}/driver_axes)
file(MAKE_DIRECTORY ${out})

ccsvm_list(--list-protocols protocols)
ccsvm_list(--list-slice-hashes hashes)
ccsvm_list(--list-replacers replacers)

# --- 1. every value runs, validates and is echoed --------------------
# Each row: the flag, the list of its values, its "machine" key.
foreach(axis "--protocol;protocols;protocol"
             "--cpu-protocol;protocols;cpu_protocol"
             "--mttop-protocol;protocols;mttop_protocol"
             "--slice-hash;hashes;slice_hash"
             "--l2-replace;replacers;l2_replace")
  list(GET axis 0 flag)
  list(GET axis 1 values)
  list(GET axis 2 key)
  foreach(value IN LISTS ${values})
    set(json ${out}/${key}_${value}.json)
    ccsvm_run(--workload synth:conflict --iters 6 ${flag} ${value}
              JSON ${json})
    file(READ ${json} doc)
    string(JSON echoed GET "${doc}" machine ${key})
    if(NOT echoed STREQUAL value)
      message(FATAL_ERROR "${flag} ${value}: machine.${key} is "
                          "'${echoed}'")
    endif()
  endforeach()
endforeach()

# --- 2. a spelled-out default is no flag at all ----------------------
# Each row: "<spelled out>|<left out>|<workload>", run with <P> set
# to each protocol in turn. The machine section echoes --region, so
# the region table is blanked before the documents are compared.
set(P "--protocol <P>")
set(row_index 0)
foreach(row
    "${P} --slice-hash mod --l2-replace lru|${P}|matmul --n 8"
    "${P} --slice-hash mod --l2-replace lru|${P}|synth:false --iters 4"
    "--cpu-protocol <P> --mttop-protocol <P>|${P}|synth:migratory --iters 12"
    "${P} --region heap:0x20000000:0x40000000:coherent|${P}|synth:stream --iters 4")
  math(EXPR row_index "${row_index} + 1")
  foreach(proto IN LISTS protocols)
    string(REPLACE "<P>" ${proto} sides "${row}")
    string(REPLACE "|" ";" sides "${sides}")
    list(GET sides 2 workload)
    separate_arguments(workload UNIX_COMMAND "--workload ${workload}")
    foreach(side 0 1)
      list(GET sides ${side} flags)
      separate_arguments(flags UNIX_COMMAND "${flags}")
      set(json ${out}/default${row_index}_${proto}_${side}.json)
      ccsvm_run(${workload} ${flags} JSON ${json})
      file(READ ${json} doc)
      string(REGEX REPLACE "\"regions\": \\[[^]]*\\]" "\"regions\": []"
             doc_${side} "${doc}")
    endforeach()
    if(NOT doc_0 STREQUAL doc_1)
      message(FATAL_ERROR "'${row}' at ${proto}: the spelled-out "
                          "default changed the JSON "
                          "(${out}/default${row_index}_${proto}_*.json)")
    endif()
  endforeach()
endforeach()

# --- 3. the conflict trace replays under every policy pair ----------
# One sweep grid; the driver exits 0 only when every point validates.
list(JOIN hashes "," hash_grid)
list(JOIN replacers "," replacer_grid)
ccsvm_run(--workload replay --trace ${CCSVM_TRACES_DIR}/synth_conflict.ccsvmt
          --slice-hash ${hash_grid} --l2-replace ${replacer_grid})

message(STATUS "driver axes ok")
