/**
 * @file
 * Figure 6: "Performance on All-Pairs Shortest Path. Results show how
 * CCSVM improves performance by avoiding multiple MTTOP task launches
 * for each parallel phase."
 *
 * Floyd-Warshall with a barrier per outer iteration. The paper's two
 * findings to reproduce: the APU never beats the plain CPU core (its
 * per-iteration kernel relaunch is too slow), and CCSVM outperforms
 * the APU by ~2 orders of magnitude even after discounting OpenCL
 * init/compilation.
 */

#include "bench_common.hh"

int
main()
{
    using namespace ccsvm;
    using namespace ccsvm::bench;

    std::vector<unsigned> sizes{8, 16, 32, 48};
    if (largeSweeps()) {
        sizes.push_back(64);
        sizes.push_back(96);
    }
    std::map<unsigned, double> cpu_ms; // baseline per size
    std::vector<BenchPoint> points;
    // CPU baseline must record first: the others report relative.
    for (const unsigned n : sizes)
        points.push_back(
            {"fig6/cpu_core/" + std::to_string(n),
             [n] {
                 return SweepOutcome{workloads::apspCpuSingle(n), {}};
             },
             [n, &cpu_ms](const SweepOutcome &o, FigureTable &t) {
                 cpu_ms[n] = toMs(o.run.ticks);
                 t.record(n, "cpu_rel", 1.0);
                 t.record(n, "cpu_ms", toMs(o.run.ticks));
             }});
    for (const unsigned n : sizes) {
        points.push_back(
            {"fig6/ccsvm_xthreads/" + std::to_string(n),
             [n] {
                 return SweepOutcome{workloads::apspXthreads(n), {}};
             },
             [n, &cpu_ms](const SweepOutcome &o, FigureTable &t) {
                 t.record(n, "ccsvm_rel", toMs(o.run.ticks) / cpu_ms[n]);
             }});
        points.push_back(
            {"fig6/apu_opencl/" + std::to_string(n),
             [n] {
                 return SweepOutcome{workloads::apspOpenCl(n), {}};
             },
             [n, &cpu_ms](const SweepOutcome &o, FigureTable &t) {
                 t.record(n, "apu_full_rel",
                          toMs(o.run.ticks) / cpu_ms[n]);
                 t.record(n, "apu_noinit_rel",
                          toMs(o.run.ticksNoInit) / cpu_ms[n]);
             }});
    }
    return runBench(
        "Figure 6: all-pairs shortest path runtime relative to the AMD "
        "CPU core (lower = faster; paper is log-scale)",
        "N", std::move(points));
}
