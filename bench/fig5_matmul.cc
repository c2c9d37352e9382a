/**
 * @file
 * Figure 5: "Performance on Matrix Multiply. Results show how CCSVM
 * reduces overhead to launch MTTOP tasks."
 *
 * The paper plots log-scale runtime relative to the AMD CPU core as a
 * function of matrix size, with four series: APU full runtime, APU
 * without compilation/initialization, CCSVM/xthreads, and the CPU
 * core itself (=1). Sizes are scaled down from the paper's 16..1024
 * because host time follows guest work: every guest load and store
 * is modelled through TLB, coherence, NoC and DRAM, and matmul's
 * work grows as n^3, so n=1024 is 512 times the work of n=128. The
 * default sweep stops at 64; CCSVM_BENCH_LARGE=1 adds 96 and 128.
 * The launch-overhead amortization trend — CCSVM dominating at small
 * sizes, the APU closing the gap as size grows — is visible within
 * the sweep.
 */

#include "bench_common.hh"

int
main()
{
    using namespace ccsvm;
    using namespace ccsvm::bench;

    std::vector<unsigned> sizes{8, 16, 32, 64};
    if (largeSweeps()) {
        sizes.push_back(96);
        sizes.push_back(128);
    }
    std::map<unsigned, double> cpu_ms; // baseline per size
    std::vector<BenchPoint> points;
    // CPU baseline must record first: the others report relative.
    for (const unsigned n : sizes)
        points.push_back(
            {"fig5/cpu_core/" + std::to_string(n),
             [n] {
                 return SweepOutcome{workloads::matmulCpuSingle(n), {}};
             },
             [n, &cpu_ms](const SweepOutcome &o, FigureTable &t) {
                 cpu_ms[n] = toMs(o.run.ticks);
                 t.record(n, "cpu_rel", 1.0);
                 t.record(n, "cpu_ms", toMs(o.run.ticks));
             }});
    for (const unsigned n : sizes) {
        points.push_back(
            {"fig5/ccsvm_xthreads/" + std::to_string(n),
             [n] {
                 system::CcsvmMachine m;
                 return SweepOutcome{workloads::matmulXthreads(m, n), {}};
             },
             [n, &cpu_ms](const SweepOutcome &o, FigureTable &t) {
                 t.record(n, "ccsvm_rel", toMs(o.run.ticks) / cpu_ms[n]);
             }});
        points.push_back(
            {"fig5/apu_opencl/" + std::to_string(n),
             [n] {
                 return SweepOutcome{workloads::matmulOpenCl(n), {}};
             },
             [n, &cpu_ms](const SweepOutcome &o, FigureTable &t) {
                 t.record(n, "apu_full_rel",
                          toMs(o.run.ticks) / cpu_ms[n]);
                 t.record(n, "apu_noinit_rel",
                          toMs(o.run.ticksNoInit) / cpu_ms[n]);
             }});
    }
    return runBench(
        "Figure 5: matmul runtime relative to the AMD CPU core "
        "(lower = faster; paper is log-scale)",
        "N", std::move(points));
}
