/**
 * @file
 * APU baseline machine tests: OoO-class CPU timing, the uncached
 * pinned window, GPU work dispatch with coalescing, the GPU's issue
 * width and its waves of work beyond its contexts, the OpenCL-like
 * runtime end-to-end, and the structural incoherence that motivates
 * the whole paper.
 */

#include <gtest/gtest.h>

#include "apu/ocl.hh"

namespace ccsvm::apu
{
namespace
{

using core::ThreadContext;
using runtime::Process;
using sim::GuestTask;
using vm::VAddr;

TEST(Apu, CpuComputeRunsAtIpc4)
{
    ApuMachine m;
    Process &proc = m.createProcess();
    // 4000 instructions at IPC 4 and 2.9 GHz: ~345 ns.
    const Tick elapsed = m.runMain(
        proc, [](ThreadContext &ctx, VAddr) -> GuestTask {
            co_await ctx.compute(4000);
        });
    EXPECT_GE(elapsed, 4000 * 86ull);
    EXPECT_LT(elapsed, 4000 * 86ull + 50 * tickNs);
}

TEST(Apu, CachedMemoryWorksThroughCoherentCluster)
{
    ApuMachine m;
    Process &proc = m.createProcess();
    const VAddr buf = proc.gmalloc(256);
    m.runMain(proc, [](ThreadContext &ctx, VAddr b) -> GuestTask {
        for (int i = 0; i < 8; ++i)
            co_await ctx.store<std::uint64_t>(b + i * 8, 40 + i);
        for (int i = 0; i < 8; ++i) {
            const auto v =
                co_await ctx.load<std::uint64_t>(b + i * 8);
            ccsvm_assert(v == 40u + i, "bad readback");
        }
    }, buf);
    EXPECT_EQ(proc.peek<std::uint64_t>(buf), 40u);
}

TEST(Apu, UncachedWindowCountsDramTransactions)
{
    ApuMachine m;
    Process &proc = m.createProcess();
    // Map one pinned page into the process.
    const Addr pa = m.allocPinned(mem::pageBytes);
    const VAddr va = proc.addressSpace().reserve(mem::pageBytes);
    proc.addressSpace().pageTable().map(va, pa, true);

    const auto dram_before = m.dramAccesses();
    m.runMain(proc, [](ThreadContext &ctx, VAddr b) -> GuestTask {
        // 64 sequential u64 stores = 512 B = 8 blocks write-combined.
        for (int i = 0; i < 64; ++i)
            co_await ctx.store<std::uint64_t>(b + i * 8, i);
        // Read them back: 8 block reads.
        for (int i = 0; i < 64; ++i) {
            const auto v =
                co_await ctx.load<std::uint64_t>(b + i * 8);
            ccsvm_assert(v == static_cast<std::uint64_t>(i),
                         "uncached readback failed");
        }
    }, va);
    const auto delta = m.dramAccesses() - dram_before;
    // ~8 write-combined blocks + ~8 read blocks; allow slack for
    // page-walk traffic.
    EXPECT_GE(delta, 16u);
    EXPECT_LE(delta, 30u);
    EXPECT_EQ(m.physMem().readScalar(pa + 8, 8), 1u);
}

TEST(Apu, GpuRunsWorkItemsAndCoalesces)
{
    ApuMachine m;
    // 128 work-items each read one u32 from a contiguous array and
    // write one u32: perfectly coalesceable.
    const Addr in = m.allocPinned(4096);
    const Addr out = m.allocPinned(4096);
    for (int i = 0; i < 128; ++i)
        m.physMem().writeScalar(in + i * 4, 7 * i, 4);
    const Addr args = m.allocPinned(64);
    m.physMem().writeScalar(args, in, 8);
    m.physMem().writeScalar(args + 8, out, 8);

    auto state = std::make_shared<core::TaskState>();
    state->remaining = 128;
    bool done = false;
    state->onComplete = [&] { done = true; };

    m.launchGpuTask(
        [](ThreadContext &tc, VAddr a) -> GuestTask {
            const Addr in_pa = co_await tc.load<std::uint64_t>(a);
            const Addr out_pa =
                co_await tc.load<std::uint64_t>(a + 8);
            const auto v = co_await tc.load<std::uint32_t>(
                in_pa + tc.tid() * 4);
            co_await tc.compute(2);
            co_await tc.store<std::uint32_t>(
                out_pa + tc.tid() * 4,
                static_cast<std::uint32_t>(v + 1));
        },
        args, 128, state);
    m.runUntil([&] { return done; });
    ASSERT_TRUE(done);
    for (int i = 0; i < 128; ++i)
        EXPECT_EQ(m.physMem().readScalar(out + i * 4, 4),
                  static_cast<std::uint64_t>(7 * i + 1));
    // 16 lanes reading 4-byte elements from one block: misses to the
    // same block must coalesce.
    EXPECT_GT(m.stats().get("gpu0.coalesced") +
                  m.stats().get("gpu1.coalesced") +
                  m.stats().get("gpu2.coalesced"),
              0u);
}

TEST(Apu, GpuIssueWidthBoundsOpsPerCycle)
{
    // Work-items of one compute(1) each on one unit at one op per
    // VLIW instruction: `lanes` of them issue per cycle, so the
    // launch ends ceil(n / lanes) cycles after the first issue. The
    // first cycle starts the threads, the second issues their ops,
    // and the last ops complete one cycle after they issue: two
    // cycles on top. At 300 items the launch also outgrows the
    // unit's 256 contexts, and the waiting wavefront must not stall
    // issue.
    for (const unsigned lanes : {8u, 16u}) {
        for (const unsigned n : {64u, 300u}) {
            ApuConfig cfg;
            cfg.numSimdUnits = 1;
            cfg.gpu.lanes = lanes;
            cfg.gpu.vliwUtilization = 1.0;
            ApuMachine m(cfg);
            auto state = std::make_shared<core::TaskState>();
            state->remaining = static_cast<int>(n);
            Tick done = 0;
            state->onComplete = [&] { done = m.now(); };
            const Tick start = m.now();
            m.launchGpuTask(
                [](ThreadContext &tc, VAddr) -> GuestTask {
                    co_await tc.compute(1);
                },
                0, n, state);
            m.run();
            const Tick cycles = (n + lanes - 1) / lanes + 2;
            EXPECT_EQ(done - start, cycles * cfg.gpu.clockPeriod)
                << n << " items at " << lanes << " lanes";
            EXPECT_EQ(m.stats().get("gpu0.vliwInstrs"), n);
        }
    }
}

TEST(Apu, GpuLaunchLargerThanEveryContextRunsInWaves)
{
    // 300 work-items on 2 units of 64 contexts: five wavefronts (the
    // last holds 44) over 128 contexts. Each item increments its own
    // output slot, so a slot run twice or never shows.
    ApuConfig cfg;
    cfg.numSimdUnits = 2;
    cfg.gpu.numContexts = 64;
    ApuMachine m(cfg);
    constexpr unsigned n = 300;
    const Addr out = m.allocPinned(n * 4);
    const Addr args = m.allocPinned(64);
    m.physMem().writeScalar(args, out, 8);

    auto state = std::make_shared<core::TaskState>();
    state->remaining = static_cast<int>(n);
    bool done = false;
    state->onComplete = [&] { done = true; };
    m.launchGpuTask(
        [](ThreadContext &tc, VAddr a) -> GuestTask {
            const Addr out_pa = co_await tc.load<std::uint64_t>(a);
            co_await tc.amo(out_pa + tc.tid() * 4,
                            coherence::AmoOp::Inc, 0, 0, 4);
        },
        args, n, state);
    m.run();
    ASSERT_TRUE(done);
    for (unsigned i = 0; i < n; ++i)
        EXPECT_EQ(m.physMem().readScalar(out + i * 4, 4), 1u)
            << "work-item " << i;
    EXPECT_EQ(m.stats().get("gpu0.threads") +
                  m.stats().get("gpu1.threads"),
              n);
}

TEST(Apu, GpuIsNotCoherentWithCpuCaches)
{
    // The structural property the paper attacks: a CPU write that is
    // dirty in a CPU cache is invisible to the GPU, which reads
    // memory directly.
    ApuMachine m;
    Process &proc = m.createProcess();
    const VAddr cached_va = proc.gmalloc(64);
    // CPU writes through its coherent (cached, write-back) path.
    m.runMain(proc, [](ThreadContext &ctx, VAddr b) -> GuestTask {
        co_await ctx.store<std::uint64_t>(b, 0xdead);
    }, cached_va);

    const Addr pa = proc.addressSpace().pageTable().translate(
        cached_va);
    // Functional (coherent) view sees the write...
    std::uint64_t coherent_view = 0;
    m.caches().funcRead(pa, &coherent_view, 8);
    EXPECT_EQ(coherent_view, 0xdeadu);
    // ...but raw memory (what the GPU would read) does not.
    EXPECT_EQ(m.physMem().readScalar(pa, 8), 0u)
        << "write-back data reached memory too early";
}

GuestTask
oclVecAdd(ApuMachine &m, ocl::Context &cl, ThreadContext &ctx,
          unsigned n, bool &checked)
{
    ocl::Buffer v1 = cl.createBuffer(n * 4);
    ocl::Buffer v2 = cl.createBuffer(n * 4);
    ocl::Buffer sum = cl.createBuffer(n * 4);

    co_await cl.init(ctx);
    co_await cl.buildProgram(ctx);

    // Host writes inputs through the mapped (uncached) pointers.
    co_await cl.mapBuffer(ctx, v1);
    co_await cl.mapBuffer(ctx, v2);
    for (unsigned i = 0; i < n; ++i) {
        co_await ctx.store<std::int32_t>(
            v1.va + i * 4, static_cast<std::int32_t>(i));
        co_await ctx.store<std::int32_t>(
            v2.va + i * 4, static_cast<std::int32_t>(100 + i));
    }
    co_await cl.unmapBuffer(ctx, v1);
    co_await cl.unmapBuffer(ctx, v2);

    const Addr args = cl.writeArgs({v1.pa, v2.pa, sum.pa});
    ocl::Event ev;
    co_await cl.enqueueNDRange(
        ctx,
        [](ThreadContext &tc, VAddr a) -> GuestTask {
            const Addr p1 = co_await tc.load<std::uint64_t>(a);
            const Addr p2 = co_await tc.load<std::uint64_t>(a + 8);
            const Addr ps = co_await tc.load<std::uint64_t>(a + 16);
            const auto x = co_await tc.load<std::int32_t>(
                p1 + tc.tid() * 4);
            const auto y = co_await tc.load<std::int32_t>(
                p2 + tc.tid() * 4);
            co_await tc.compute(1);
            co_await tc.store<std::int32_t>(
                ps + tc.tid() * 4,
                static_cast<std::int32_t>(x + y));
        },
        n, args, ev);
    co_await cl.finish(ctx, ev);

    // Host validates through the mapped pointer.
    co_await cl.mapBuffer(ctx, sum);
    checked = true;
    for (unsigned i = 0; i < n; ++i) {
        const auto v = static_cast<std::int32_t>(
            co_await ctx.load<std::int32_t>(sum.va + i * 4));
        if (v != static_cast<std::int32_t>(100 + 2 * i))
            checked = false;
    }
    (void)m;
}

TEST(Apu, OpenClVectorAddEndToEnd)
{
    ApuMachine m;
    Process &proc = m.createProcess();
    ocl::Context cl(m, proc);
    bool checked = false;
    constexpr unsigned n = 256;

    const Tick elapsed = m.runMain(
        proc,
        [&](ThreadContext &ctx, VAddr) -> GuestTask {
            co_await oclVecAdd(m, cl, ctx, n, checked);
        });
    EXPECT_TRUE(checked) << "GPU produced wrong sums";
    // Init + JIT dominate: the paper's whole point about small tasks.
    EXPECT_GE(elapsed, cl.config().platformInitLatency +
                           cl.config().jitCompileLatency);
}

TEST(Apu, LaunchOverheadDwarfsSmallKernels)
{
    ApuMachine m;
    Process &proc = m.createProcess();
    ocl::Context cl(m, proc);
    ocl::Buffer buf = cl.createBuffer(4096);
    const Addr args = cl.writeArgs({buf.pa});

    const Tick elapsed = m.runMain(
        proc,
        [&](ThreadContext &ctx, VAddr) -> GuestTask {
            // No init/JIT counted: launch + tiny kernel + finish.
            ocl::Event ev;
            co_await cl.enqueueNDRange(
                ctx,
                [](ThreadContext &tc, VAddr a) -> GuestTask {
                    const Addr p =
                        co_await tc.load<std::uint64_t>(a);
                    co_await tc.store<std::uint32_t>(
                        p + tc.tid() * 4, tc.tid());
                },
                8, args, ev);
            co_await cl.finish(ctx, ev);
        });
    // Must be dominated by the ~57 us of driver overhead — orders of
    // magnitude above the CCSVM machine's ~2 us launch path.
    EXPECT_GE(elapsed, 55 * tickUs);
    EXPECT_LT(elapsed, 200 * tickUs);
}

TEST(Apu, PthreadsStyleFourCoreRun)
{
    ApuMachine m;
    Process &proc = m.createProcess();
    const VAddr out = proc.gmalloc(4 * 64);
    int remaining = 4;
    for (int c = 0; c < 4; ++c) {
        m.spawnCpuThread(
            c, proc,
            [](ThreadContext &ctx, VAddr slot) -> GuestTask {
                std::uint64_t acc = 0;
                for (int i = 1; i <= 100; ++i) {
                    acc += static_cast<std::uint64_t>(i);
                    co_await ctx.compute(2);
                }
                co_await ctx.store<std::uint64_t>(slot, acc);
            },
            out + c * 64, [&remaining] { --remaining; });
    }
    m.run();
    EXPECT_EQ(remaining, 0);
    for (int c = 0; c < 4; ++c)
        EXPECT_EQ(proc.peek<std::uint64_t>(out + c * 64), 5050u);
}

} // namespace
} // namespace ccsvm::apu
