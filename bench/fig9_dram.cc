/**
 * @file
 * Figure 9: "DRAM Accesses for Matrix Multiply. CCSVM/xthreads avoids
 * many off-chip accesses."
 *
 * Off-chip DRAM transactions for the dense matmul of Figure 5, per
 * system (log scale in the paper). The APU communicates CPU<->GPU
 * through DRAM (uncached pinned writes + GPU fetches), the CPU core's
 * strided B-column accesses cannot coalesce, while CCSVM keeps
 * communication on-chip in the shared L2.
 */

#include "bench_common.hh"

int
main()
{
    using namespace ccsvm;
    using namespace ccsvm::bench;

    std::vector<unsigned> sizes{8, 16, 32, 64};
    if (largeSweeps())
        sizes.push_back(128);
    struct System
    {
        const char *name;
        const char *series;
        workloads::RunResult (*run)(unsigned);
    };
    const System systems[] = {
        {"fig9/cpu_core/", "cpu_dram",
         [](unsigned n) { return workloads::matmulCpuSingle(n); }},
        {"fig9/ccsvm_xthreads/", "ccsvm_dram",
         [](unsigned n) { return workloads::matmulXthreads(n); }},
        {"fig9/apu_opencl/", "apu_dram",
         [](unsigned n) { return workloads::matmulOpenCl(n); }},
    };
    std::vector<BenchPoint> points;
    for (const unsigned n : sizes) {
        for (const System &sys : systems) {
            points.push_back(
                {sys.name + std::to_string(n),
                 [run = sys.run, n] { return SweepOutcome{run(n), {}}; },
                 [n, series = sys.series](const SweepOutcome &o,
                                          FigureTable &t) {
                     t.record(n, series,
                              static_cast<double>(o.run.dramAccesses));
                 }});
        }
    }
    return runBench(
        "Figure 9: off-chip DRAM transactions for matmul "
        "(paper is log-scale)",
        "N", std::move(points));
}
