/**
 * @file
 * Ablation A1: task-launch latency — the MIFD write-syscall path vs
 * the OpenCL driver path (paper Secs. 3.1, 5.2).
 *
 * Measures the end-to-end time to launch a no-op task of T threads
 * and observe its completion, on both machines, sweeping T. This
 * isolates the mechanism behind Figure 5's small-size gap: a ~2 us
 * syscall+MIFD dispatch versus ~60 us of driver work per enqueue.
 * Also sweeps the MIFD's own dispatch cost to show the launch path
 * is dominated by the syscall, not the device.
 */

#include "bench_common.hh"

#include "apu/ocl.hh"
#include "runtime/xthreads.hh"
#include "system/ccsvm_machine.hh"

namespace ccsvm::bench
{
namespace
{

using core::ThreadContext;
using sim::GuestTask;
using vm::VAddr;
namespace xt = ccsvm::xthreads;

Tick
ccsvmLaunch(unsigned threads, dev::MifdConfig mifd_cfg)
{
    system::CcsvmConfig cfg;
    cfg.mifd = mifd_cfg;
    system::CcsvmMachine m(cfg);
    auto &proc = m.createProcess();
    const VAddr done = proc.gmalloc(threads * 4);
    for (unsigned t = 0; t < threads; ++t)
        proc.poke<std::uint32_t>(done + t * 4, 0);

    return m.runMain(
        proc,
        [threads](ThreadContext &ctx, VAddr d) -> GuestTask {
            co_await xt::createMthread(
                ctx,
                [](ThreadContext &mt, VAddr dd) -> GuestTask {
                    co_await xt::mttopSignal(mt, dd);
                },
                d, 0, threads - 1);
            co_await xt::cpuWaitAll(ctx, d, 0, threads - 1);
        },
        done);
}

Tick
apuLaunch(unsigned threads)
{
    apu::ApuMachine m;
    auto &proc = m.createProcess();
    apu::ocl::Context cl(m, proc);
    apu::ocl::Buffer buf = cl.createBuffer(threads * 4 + 64);
    const Addr args = cl.writeArgs({buf.pa});

    return m.runMain(
        proc, [&, threads](ThreadContext &ctx, VAddr) -> GuestTask {
            // Init/JIT excluded: steady-state launch cost only.
            apu::ocl::Event ev;
            co_await cl.enqueueNDRange(
                ctx,
                [](ThreadContext &tc, VAddr a) -> GuestTask {
                    const Addr p = co_await tc.load<std::uint64_t>(a);
                    co_await tc.store<std::uint32_t>(
                        p + tc.tid() * 4, 1);
                },
                threads, args, ev);
            co_await cl.finish(ctx, ev);
        }) - m.config().threadSpawnLatency;
}

} // namespace
} // namespace ccsvm::bench

int
main()
{
    using namespace ccsvm;
    using namespace ccsvm::bench;

    // Ablation within the ablation: a 10x slower MIFD barely moves
    // the needle — the syscall dominates the CCSVM launch path.
    dev::MifdConfig slow_mifd;
    slow_mifd.taskAcceptLatency *= 10;
    slow_mifd.chunkDispatchLatency *= 10;
    struct Flavor
    {
        const char *name;
        const char *series;
        std::function<Tick(unsigned)> launch;
    };
    const Flavor flavors[] = {
        {"abl_launch/ccsvm/", "ccsvm_launch_us",
         [](unsigned t) { return ccsvmLaunch(t, dev::MifdConfig{}); }},
        {"abl_launch/ccsvm_slow_mifd/", "ccsvm_slow_mifd_us",
         [slow_mifd](unsigned t) { return ccsvmLaunch(t, slow_mifd); }},
        {"abl_launch/apu_opencl/", "apu_launch_us", apuLaunch},
    };
    std::vector<BenchPoint> points;
    for (const unsigned threads : {8, 64, 256, 1024}) {
        for (const Flavor &f : flavors) {
            points.push_back(
                {f.name + std::to_string(threads),
                 [launch = f.launch, threads] {
                     SweepOutcome o;
                     o.run.ticks = launch(threads);
                     o.run.correct = true;
                     return o;
                 },
                 [threads, series = f.series](const SweepOutcome &o,
                                              FigureTable &t) {
                     t.record(threads, series,
                              static_cast<double>(o.run.ticks) / tickUs);
                 }});
        }
    }
    return runBench(
        "Ablation A1: no-op task launch latency (us) vs thread count",
        "threads", std::move(points));
}
