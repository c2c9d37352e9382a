# Test script: the ccsvm driver must reject unknown flags and bad
# flag values fast, with a clear error plus a usage hint on stderr and
# exit code 2 (not silently ignore them and simulate anyway).
#
# Usage: cmake -DCCSVM_DRIVER=<path> -P CheckDriverBadFlag.cmake

include(${CMAKE_CURRENT_LIST_DIR}/CcsvmCheck.cmake)
ccsvm_require(CCSVM_DRIVER)

# Unknown option: error + usage hint, exit 2.
ccsvm_run(--definitely-not-a-flag EXIT 2
          MATCHES "unknown option '--definitely-not-a-flag'.*usage:")

# Bad value for a validated flag: error naming the flag AND the
# accepted values (from the same enum table --list-protocols prints),
# exit 2. All three --protocol-family flags share the path, and so do
# the bank-layer policy flags.
foreach(flag --protocol --cpu-protocol --mttop-protocol)
  ccsvm_run(${flag} mosi EXIT 2
            MATCHES "${flag} wants one of msi, mesi, moesi")
endforeach()
ccsvm_run(--slice-hash crc32 EXIT 2
          MATCHES "--slice-hash wants one of mod, xorfold, skew")
ccsvm_run(--l2-replace plru EXIT 2
          MATCHES "--l2-replace wants one of lru, fifo, rand, region")

# Geometry the cache arrays cannot index: zero or non-power-of-two
# set counts must be rejected up front with a diagnostic, exit 2.
foreach(geom "--l2-banks;0" "--l2-bank-kb;0" "--cpu-l1-kb;0")
  ccsvm_run(${geom} --workload synth:false --iters 1 EXIT 2)
endforeach()
ccsvm_run(--l2-bank-kb 3 --workload synth:false --iters 1 EXIT 2
          MATCHES "power of two")

# Integer flags take decimal digits only, within the range of the
# field they land in: a sign must not wrap to a huge count and a
# too-large value must not be truncated. Each exits 2 naming the flag.
foreach(bad "--cpu-cores;-1" "--mttop-cores;-1" "--mttop-contexts;-1"
            "--n;4294967296" "--sim-threads;-1" "--jobs;-1"
            "--sample-interval;-1" "--l2-banks;4294967295"
            "--iters;+5" "--seed;18446744073709551616")
  list(GET bad 0 flag)
  ccsvm_run(${bad} --workload synth:false --iters 1 EXIT 2
            MATCHES "^ccsvm: ${flag} ")
endforeach()

# The --list flags must enumerate their tables, one name per line.
foreach(list_want "--list-protocols;msi\nmesi\nmoesi"
                  "--list-slice-hashes;mod\nxorfold\nskew"
                  "--list-replacers;lru\nfifo\nrand\nregion")
  list(GET list_want 0 flag)
  list(GET list_want 1 want)
  ccsvm_run(${flag} STDOUT out)
  if(NOT out MATCHES "${want}")
    message(FATAL_ERROR "${flag} output unexpected:\n${out}")
  endif()
endforeach()

# Flag missing its argument: exit 2.
ccsvm_run(--workload EXIT 2)

message(STATUS "driver flag validation ok")
