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
ccsvm_run(--trace-categories bogus EXIT 2
          MATCHES "--trace-categories wants a comma list of coh, noc, vm, kernel, engine or all")

# Geometry the cache arrays cannot index: zero or non-power-of-two
# set counts must be rejected up front with a diagnostic, exit 2.
foreach(geom "--l2-banks;0" "--l2-bank-kb;0" "--cpu-l1-kb;0")
  ccsvm_run(${geom} --workload synth:false --iters 1 EXIT 2)
endforeach()
ccsvm_run(--l2-bank-kb 3 --workload synth:false --iters 1 EXIT 2
          MATCHES "power of two")

# Integer flags take decimal digits only, within the range of the
# field they land in: a sign must not wrap to a huge count and a
# too-large value must not be truncated. An MTTOP core needs room for
# one SIMD-width (8-thread) chunk, or no launch could ever dispatch.
# Each exits 2 naming the flag.
foreach(bad "--cpu-cores;-1" "--mttop-cores;-1" "--mttop-contexts;-1"
            "--mttop-contexts;7" "--n;4294967296" "--sim-threads;-1"
            "--jobs;-1" "--sample-interval;-1" "--l2-banks;4294967295"
            "--iters;+5" "--seed;18446744073709551616")
  list(GET bad 0 flag)
  ccsvm_run(${bad} --workload synth:false --iters 1 EXIT 2
            MATCHES "^ccsvm: ${flag} ")
endforeach()

# Byte counts are digits only (0x-hex or decimal, optional K/M/G): a
# sign must not wrap, a suffix must not overflow, and a region must
# end inside the 64-bit address space. --density is a finite fraction
# in [0, 1]. Each exits 2 naming the flag.
foreach(bad "--region;r:0x10000000:-4096:bypass"
            "--region;r:0x10000000:17179869185g:bypass"
            "--region;r:0x10000000:0xfffffffffffff000:bypass"
            "--region;r:-4096:4096:bypass"
            "--density;nan" "--density;inf" "--density;-1"
            "--density;1.5")
  list(GET bad 0 flag)
  ccsvm_run(${bad} --workload spmm EXIT 2 MATCHES "^ccsvm: ${flag} ")
endforeach()

# --help names the size suffixes the parser takes: each suffix it
# names runs, and any other letter is rejected as a syntax error.
ccsvm_run(--help STDOUT help)
if(NOT help MATCHES "decimal, ([A-Z/]+) suffixes")
  message(FATAL_ERROR "--help names no --region size suffixes:\n${help}")
endif()
string(REPLACE "/" ";" named "${CMAKE_MATCH_1}")
foreach(suffix K M G T P E)
  set(region --region h:0x20000000:4${suffix}:bypass)
  list(FIND named ${suffix} at)
  if(at GREATER -1)
    ccsvm_run(--workload synth:stream --iters 2 ${region})
  else()
    ccsvm_run(--workload synth:stream --iters 2 ${region} EXIT 2
              MATCHES "^ccsvm: --region size needs a byte count")
  endif()
endforeach()

# A leading zero is decimal, not octal: 020000 is 20,000 bytes, not a
# page multiple (read as octal it would be 8,192 and run).
ccsvm_run(--workload synth:stream --iters 2
          --region h:0x20000000:020000:bypass EXIT 2
          MATCHES "must be page-aligned")

# Overlapping regions exit 2 with a CLI diagnostic instead of tripping
# the region table's assert.
ccsvm_run(--workload synth:stream --iters 2
          --region a:0x20000000:0x2000:bypass
          --region b:0x20001000:0x2000:coherent EXIT 2 MATCHES "overlaps")

# A directory line keeps its sharers in a 32-bit mask, one bit per L1
# (one per CPU or MTTOP core): 33 L1s are rejected naming both flags
# and the limit, 32 run and validate.
ccsvm_run(--workload synth:hot --synth-threads 64 --iters 64
          --mttop-cores 29 EXIT 2
          MATCHES "^ccsvm: --cpu-cores 4 \\+ --mttop-cores 29 .*at most 32")
ccsvm_run(--workload synth:hot --synth-threads 64 --iters 64
          --mttop-cores 28)

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
