/**
 * @file
 * All-pairs shortest path — Floyd-Warshall (paper Sec. 5.2, Fig. 6).
 *
 * "The algorithm is a triply-nested loop that fills out an adjacency
 * matrix... The algorithm requires a barrier between each iteration
 * of the outermost loop. Because the APU's synchronization is quite
 * slow, the APU's performance never exceeds that of simply using the
 * CPU core."
 *
 * CCSVM/xthreads launches the MTTOP threads ONCE and synchronizes
 * every k-iteration with the global cpu_mttop_barrier; the OpenCL
 * version must enqueue a fresh kernel (and clFinish) for every
 * k-iteration — reproducing the relaunch cost the figure punishes.
 */

#include "workloads/workloads.hh"

#include <vector>

#include "runtime/xthreads.hh"

namespace ccsvm::workloads
{

using core::ThreadContext;
using sim::GuestTask;
using vm::VAddr;
namespace xt = ccsvm::xthreads;

namespace
{

constexpr std::int32_t infDist = 1 << 28;

/** Deterministic directed-graph edge weights. */
std::int32_t
inputDist(unsigned i, unsigned j)
{
    if (i == j)
        return 0;
    // Sparse-ish connectivity with deterministic weights.
    const unsigned h = (i * 31 + j * 17) % 23;
    return (h < 8) ? static_cast<std::int32_t>(h + 1) : infDist;
}

std::vector<std::int32_t>
goldenApsp(unsigned n)
{
    std::vector<std::int32_t> d(static_cast<std::size_t>(n) * n);
    for (unsigned i = 0; i < n; ++i)
        for (unsigned j = 0; j < n; ++j)
            d[static_cast<std::size_t>(i) * n + j] = inputDist(i, j);
    for (unsigned k = 0; k < n; ++k) {
        for (unsigned i = 0; i < n; ++i) {
            for (unsigned j = 0; j < n; ++j) {
                const auto alt =
                    d[static_cast<std::size_t>(i) * n + k] +
                    d[static_cast<std::size_t>(k) * n + j];
                auto &cur = d[static_cast<std::size_t>(i) * n + j];
                if (alt < cur)
                    cur = alt;
            }
        }
    }
    return d;
}

enum ArgSlot : unsigned
{
    argD = 0,
    argBarrier = 8,
    argSense = 16,
    argDone = 24,
    argN = 32,
    argThreads = 40,
};

GuestTask
generateDist(ThreadContext &ctx, VAddr d, unsigned n)
{
    for (unsigned i = 0; i < n; ++i) {
        for (unsigned j = 0; j < n; ++j) {
            co_await ctx.compute(2);
            co_await ctx.store<std::int32_t>(d + (i * n + j) * 4,
                                             inputDist(i, j));
        }
    }
}

/** One k-iteration's row updates for one thread's row share. */
GuestTask
relaxRows(ThreadContext &ctx, VAddr d, unsigned n, unsigned k,
          unsigned tid, unsigned num_threads)
{
    for (unsigned i = tid; i < n; i += num_threads) {
        const auto dik = static_cast<std::int32_t>(
            co_await ctx.load<std::int32_t>(d + (i * n + k) * 4));
        if (dik >= infDist) {
            co_await ctx.compute(1);
            continue;
        }
        for (unsigned j = 0; j < n; ++j) {
            const auto dkj = static_cast<std::int32_t>(
                co_await ctx.load<std::int32_t>(
                    d + (k * n + j) * 4));
            const auto dij = static_cast<std::int32_t>(
                co_await ctx.load<std::int32_t>(
                    d + (i * n + j) * 4));
            co_await ctx.compute(2);
            if (dik + dkj < dij) {
                co_await ctx.store<std::int32_t>(
                    d + (i * n + j) * 4, dik + dkj);
            }
        }
    }
}

/** The persistent MTTOP kernel: all k-iterations with a global
 * barrier between each (launched once). */
GuestTask
apspKernel(ThreadContext &ctx, VAddr args)
{
    const VAddr d = co_await ctx.load<std::uint64_t>(args + argD);
    const VAddr barrier =
        co_await ctx.load<std::uint64_t>(args + argBarrier);
    const VAddr sense =
        co_await ctx.load<std::uint64_t>(args + argSense);
    const VAddr done =
        co_await ctx.load<std::uint64_t>(args + argDone);
    const auto n = static_cast<unsigned>(
        co_await ctx.load<std::uint32_t>(args + argN));
    const auto num_threads = static_cast<unsigned>(
        co_await ctx.load<std::uint32_t>(args + argThreads));

    std::uint32_t next_sense = 1;
    for (unsigned k = 0; k < n; ++k) {
        co_await relaxRows(ctx, d, n, k, ctx.tid(), num_threads);
        co_await xt::mttopBarrier(ctx, barrier, sense, next_sense);
        next_sense ^= 1;
    }
    co_await xt::mttopSignal(ctx, done);
}

bool
verify(const std::function<std::int32_t(unsigned)> &read, unsigned n)
{
    const auto golden = goldenApsp(n);
    for (unsigned idx = 0; idx < n * n; ++idx) {
        if (read(idx) != golden[idx])
            return false;
    }
    return true;
}

} // namespace

RunResult
apspXthreads(system::CcsvmMachine &m, unsigned n)
{
    runtime::Process &proc = m.createProcess();

    const unsigned num_threads = std::min(n, m.mttopContexts());

    const VAddr d = proc.gmalloc(n * n * 4);
    const VAddr barrier = proc.gmalloc(num_threads * 4);
    const VAddr sense = proc.gmalloc(4);
    const VAddr done = proc.gmalloc(num_threads * 4);
    const VAddr args = proc.gmalloc(64);
    for (unsigned t = 0; t < num_threads; ++t) {
        proc.poke<std::uint32_t>(barrier + t * 4, 0);
        proc.poke<std::uint32_t>(done + t * 4, 0);
    }
    proc.poke<std::uint32_t>(sense, 0);
    proc.poke<std::uint64_t>(args + argD, d);
    proc.poke<std::uint64_t>(args + argBarrier, barrier);
    proc.poke<std::uint64_t>(args + argSense, sense);
    proc.poke<std::uint64_t>(args + argDone, done);
    proc.poke<std::uint32_t>(args + argN, n);
    proc.poke<std::uint32_t>(args + argThreads, num_threads);

    RunResult r = measureMain(
        m, proc,
        [d, n, num_threads, barrier, sense,
         done](ThreadContext &ctx, VAddr args_va) -> GuestTask {
            co_await generateDist(ctx, d, n);
            co_await xt::createMthread(ctx, apspKernel, args_va, 0,
                                       num_threads - 1);
            // One global CPU+MTTOP barrier per outer iteration.
            std::uint32_t next_sense = 1;
            for (unsigned k = 0; k < n; ++k) {
                co_await xt::cpuBarrier(ctx, barrier, sense, 0,
                                        num_threads - 1, next_sense);
                next_sense ^= 1;
            }
            co_await xt::cpuWaitAll(ctx, done, 0, num_threads - 1);
        },
        args);
    r.correct = verify(
        [&proc, d](unsigned idx) {
            return proc.peek<std::int32_t>(d + idx * 4);
        },
        n);
    return r;
}

RunResult
apspOpenCl(unsigned n, apu::ApuConfig cfg, apu::ocl::OclConfig ocl)
{
    apu::ApuMachine m(cfg);
    runtime::Process &proc = m.createProcess();
    apu::ocl::Context cl(m, proc, ocl);

    apu::ocl::Buffer bd = cl.createBuffer(n * n * 4);

    Tick init_ticks = 0;
    RunResult r = measureMain(
        m, proc,
        [&m, &cl, &bd, n, &init_ticks](ThreadContext &ctx,
                                       VAddr) -> GuestTask {
            const Tick t0 = m.now();
            co_await cl.init(ctx);
            co_await cl.buildProgram(ctx);
            init_ticks = m.now() - t0;

            co_await cl.mapBuffer(ctx, bd);
            co_await generateDist(ctx, bd.va, n);
            co_await cl.unmapBuffer(ctx, bd);

            // One kernel enqueue + finish per outer iteration: the
            // OpenCL model has no global device barrier.
            for (unsigned k = 0; k < n; ++k) {
                const Addr args = cl.writeArgs({bd.pa, n, k});
                apu::ocl::Event ev;
                co_await cl.enqueueNDRange(
                    ctx,
                    [](ThreadContext &tc, VAddr a) -> GuestTask {
                        const Addr pd =
                            co_await tc.load<std::uint64_t>(a);
                        const auto nn = static_cast<unsigned>(
                            co_await tc.load<std::uint64_t>(a + 8));
                        const auto kk = static_cast<unsigned>(
                            co_await tc.load<std::uint64_t>(a + 16));
                        co_await relaxRows(tc, pd, nn, kk, tc.tid(),
                                           nn);
                    },
                    n, args, ev);
                co_await cl.finish(ctx, ev);
            }
        });
    r.ticksNoInit -= init_ticks;
    r.correct = verify(
        [&m, &bd](unsigned idx) {
            return static_cast<std::int32_t>(
                m.physMem().readScalar(bd.pa + idx * 4, 4));
        },
        n);
    return r;
}

RunResult
apspCpuSingle(unsigned n, apu::ApuConfig cfg)
{
    apu::ApuMachine m(cfg);
    runtime::Process &proc = m.createProcess();
    const VAddr d = proc.gmalloc(n * n * 4);

    RunResult r = measureMain(
        m, proc, [d, n](ThreadContext &ctx, VAddr) -> GuestTask {
            co_await generateDist(ctx, d, n);
            for (unsigned k = 0; k < n; ++k)
                co_await relaxRows(ctx, d, n, k, 0, 1);
        });
    r.correct = verify(
        [&proc, d](unsigned idx) {
            return proc.peek<std::int32_t>(d + idx * 4);
        },
        n);
    return r;
}

} // namespace ccsvm::workloads
