/**
 * @file
 * Figure 8: "Performance of Sparse Matrix Multiplication."
 *
 * Speedup of CCSVM/xthreads over the AMD CPU core for linked-list
 * sparse matmul with mttop_malloc. Left panel: fixed 1% density,
 * varying matrix size. Right panel: fixed size, varying density —
 * "speedups until the matrix density increases to the point at which
 * the mttop_malloc() calls constrain the performance". No OpenCL
 * series exists.
 */

#include "bench_common.hh"

namespace ccsvm::bench
{
namespace
{

workloads::SpmmParams
sizeParams(unsigned n)
{
    workloads::SpmmParams p;
    p.n = n;
    p.density = 0.01;
    return p;
}

workloads::SpmmParams
densityParams(unsigned density_permille)
{
    workloads::SpmmParams p;
    p.n = largeSweeps() ? 128 : 96;
    p.density = density_permille / 1000.0;
    return p;
}

/** CPU baseline runtime (ms) per table row. */
using BaselineMs = std::map<std::uint64_t, double>;

/** The CPU-core point for @p p: records no figure row, only the
 * baseline runtime that the CCSVM point of row @p x reads. */
BenchPoint
cpuPoint(std::string name, workloads::SpmmParams p, std::uint64_t x,
         BaselineMs &cpu_ms)
{
    return {std::move(name),
            [p] { return SweepOutcome{workloads::spmmCpuSingle(p), {}}; },
            [x, &cpu_ms](const SweepOutcome &o, FigureTable &) {
                cpu_ms[x] = toMs(o.run.ticks);
            }};
}

/** The CCSVM point for @p p: records its speedup over row @p x's CPU
 * baseline in @p series. */
BenchPoint
ccsvmPoint(std::string name, workloads::SpmmParams p, std::uint64_t x,
           const char *series, BaselineMs &cpu_ms)
{
    return {std::move(name),
            [p] { return SweepOutcome{workloads::spmmXthreads(p), {}}; },
            [x, series, &cpu_ms](const SweepOutcome &o, FigureTable &t) {
                t.record(x, series, cpu_ms[x] / toMs(o.run.ticks));
            }};
}

} // namespace
} // namespace ccsvm::bench

int
main()
{
    using namespace ccsvm;
    using namespace ccsvm::bench;

    BaselineMs cpu_ms;
    std::vector<BenchPoint> points;
    // CPU baselines record first in each panel.

    // Left panel: size sweep at 1% density.
    std::vector<unsigned> sizes{48, 64, 96};
    if (largeSweeps()) {
        sizes.push_back(128);
        sizes.push_back(192);
    }
    for (const unsigned n : sizes)
        points.push_back(cpuPoint("fig8/size/cpu_core/" +
                                      std::to_string(n),
                                  sizeParams(n), n, cpu_ms));
    for (const unsigned n : sizes)
        points.push_back(ccsvmPoint(
            "fig8/size/ccsvm_xthreads/" + std::to_string(n),
            sizeParams(n), n, "speedup_vs_cpu(size,1%)", cpu_ms));

    // Right panel: density sweep at fixed size (permille units; rows
    // appear in the table as 1000+permille).
    const unsigned densities[] = {5, 10, 20, 40, 80};
    for (const unsigned d : densities)
        points.push_back(cpuPoint("fig8/density/cpu_core/" +
                                      std::to_string(d),
                                  densityParams(d), 1000 + d, cpu_ms));
    for (const unsigned d : densities)
        points.push_back(ccsvmPoint(
            "fig8/density/ccsvm_xthreads/" + std::to_string(d),
            densityParams(d), 1000 + d,
            "speedup_vs_cpu(density@fixedN)", cpu_ms));

    return runBench(
        "Figure 8: sparse matmul speedup of CCSVM/xthreads over the AMD "
        "CPU core (rows <1000: size sweep at 1% density; rows 1000+d: "
        "density sweep, d = permille)",
        "N|1000+d", std::move(points));
}
