#!/usr/bin/env bash
# Tier-1 verify: configure, build warnings-as-errors, run every test.
# Usage: scripts/ci.sh [build-dir]
#   CCSVM_BUILD_TYPE=Release|Debug   CMake build type (default Release)
#   CCSVM_SANITIZE=1|address|thread  sanitizer lane (ASan+UBSan or TSan)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build}"

CMAKE_ARGS=(-DCCSVM_WERROR=ON
            -DCMAKE_BUILD_TYPE="${CCSVM_BUILD_TYPE:-Release}")
case "${CCSVM_SANITIZE:-0}" in
    0) ;;
    1) CMAKE_ARGS+=(-DCCSVM_SANITIZE=ON) ;;
    *) CMAKE_ARGS+=(-DCCSVM_SANITIZE="$CCSVM_SANITIZE") ;;
esac
# Compile through ccache when available (the CI workflow caches
# ~/.cache/ccache across runs; local builds just get faster rebuilds).
if command -v ccache >/dev/null 2>&1; then
    CMAKE_ARGS+=(-DCMAKE_CXX_COMPILER_LAUNCHER=ccache)
fi

cmake -B "$BUILD_DIR" -S . "${CMAKE_ARGS[@]}"
cmake --build "$BUILD_DIR" -j "$(nproc)"

# Full pass: every suite (including the long label). The protocol
# suites instantiate every protocol and, through the pair-parametrized
# suites, every protocol pair.
ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$(nproc)"

# Partitioned-engine pass: rerun the suites that build a CcsvmMachine
# or the protocol-test harness (the "machine" ctest label, set in
# tests/CMakeLists.txt) with every engine on 4 workers
# (CCSVM_SIM_THREADS is the suites' opt-in knob — engines built
# without an explicit thread count consult it). The engine commits
# the same event order at any thread count, so exactly the same
# assertions must hold.
echo "=== machine and protocol suites on the 4-thread engine ==="
CCSVM_SIM_THREADS=4 ctest --test-dir "$BUILD_DIR" \
    --output-on-failure -j "$(nproc)" -L machine

# Driver smoke on the threaded engine (the quantitative byte-identity
# grid lives in the ccsvm_parallel_engine ctest, run above).
"$BUILD_DIR"/tools/ccsvm --workload matmul --n 8 --sim-threads 4

# Trace capture + replay smoke: capture a run, validate and inspect
# the file with ccsvm-trace, replay it, and check the committed trace
# library. The quantitative assertions (capture/replay stats
# byte-identity at 1 and 4 sim threads, shape-mismatch rejection) live
# in replay_test and the ccsvm_replay_check ctest, which the full pass
# above already ran.
echo "=== trace capture/replay smoke ==="
"$BUILD_DIR"/tools/ccsvm --workload synth:false --iters 12 \
    --capture-out "$BUILD_DIR/ci_smoke.ccsvmt"
"$BUILD_DIR"/tools/ccsvm-trace validate "$BUILD_DIR/ci_smoke.ccsvmt"
"$BUILD_DIR"/tools/ccsvm-trace inspect "$BUILD_DIR/ci_smoke.ccsvmt"
"$BUILD_DIR"/tools/ccsvm --workload replay \
    --trace "$BUILD_DIR/ci_smoke.ccsvmt"
for trace in traces/*.ccsvmt; do
    "$BUILD_DIR"/tools/ccsvm-trace validate "$trace"
done
