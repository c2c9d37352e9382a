/**
 * @file
 * Figure 7: "Barnes-Hut performance. CCSVM/xthreads enables pointer
 * chasing code."
 *
 * Runtime of the pointer-based, recursive Barnes-Hut n-body benchmark:
 * CCSVM/xthreads vs a single AMD CPU core vs pthreads with 4 threads
 * on the APU's 4 CPU cores. No OpenCL series exists (the paper:
 * "We could not find or develop an OpenCL version").
 */

#include "bench_common.hh"

namespace ccsvm::bench
{
namespace
{

workloads::BarnesHutParams
params(unsigned bodies)
{
    workloads::BarnesHutParams p;
    p.bodies = bodies;
    p.steps = 2;
    return p;
}

} // namespace
} // namespace ccsvm::bench

int
main()
{
    using namespace ccsvm;
    using namespace ccsvm::bench;

    std::vector<unsigned> sizes{32, 64, 128};
    if (largeSweeps()) {
        sizes.push_back(256);
        sizes.push_back(512);
    }
    std::map<unsigned, double> cpu_ms; // baseline per body count
    std::vector<BenchPoint> points;
    // CPU baseline must record first: the others report relative.
    for (const unsigned b : sizes)
        points.push_back(
            {"fig7/cpu_core/" + std::to_string(b),
             [b] {
                 return SweepOutcome{
                     workloads::barnesHutCpuSingle(params(b)), {}};
             },
             [b, &cpu_ms](const SweepOutcome &o, FigureTable &t) {
                 cpu_ms[b] = toMs(o.run.ticks);
                 t.record(b, "cpu_rel", 1.0);
                 t.record(b, "cpu_ms", toMs(o.run.ticks));
             }});
    for (const unsigned b : sizes) {
        points.push_back(
            {"fig7/ccsvm_xthreads/" + std::to_string(b),
             [b] {
                 return SweepOutcome{
                     workloads::barnesHutXthreads(params(b)), {}};
             },
             [b, &cpu_ms](const SweepOutcome &o, FigureTable &t) {
                 t.record(b, "ccsvm_rel", toMs(o.run.ticks) / cpu_ms[b]);
             }});
        points.push_back(
            {"fig7/pthreads_4cpu/" + std::to_string(b),
             [b] {
                 return SweepOutcome{
                     workloads::barnesHutPthreads(params(b)), {}};
             },
             [b, &cpu_ms](const SweepOutcome &o, FigureTable &t) {
                 t.record(b, "pthreads4_rel",
                          toMs(o.run.ticks) / cpu_ms[b]);
             }});
    }
    return runBench(
        "Figure 7: Barnes-Hut runtime relative to the AMD CPU core "
        "(lower = faster)",
        "bodies", std::move(points));
}
