/**
 * @file
 * Ablation A2: atomics at the L1 (CCSVM, paper Sec. 3.2.4) vs atomics
 * at memory (the APU GPU's policy).
 *
 * "Today's MTTOP cores tend to perform atomic instructions at the
 * last-level cache/memory rather than at the L1... our MTTOP performs
 * atomic operations at the L1 after requesting exclusive coherence
 * access to the block." Uncontended atomics to thread-private
 * counters stay in the owner's L1 on CCSVM but pay two off-chip
 * transactions each on the APU GPU; contended atomics migrate the
 * block between L1s on CCSVM.
 */

#include "bench_common.hh"

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

/** threads x iters atomic increments; contended = one shared counter,
 * else one counter per thread (own cache block). */
Tick
ccsvmAtomics(unsigned threads, unsigned iters, bool contended)
{
    system::CcsvmMachine m;
    auto &proc = m.createProcess();
    const VAddr counters =
        proc.gmalloc(contended ? 64 : threads * 64ull);
    const VAddr done = proc.gmalloc(threads * 4);
    const VAddr args = proc.gmalloc(32);
    for (unsigned t = 0; t < threads; ++t)
        proc.poke<std::uint32_t>(done + t * 4, 0);
    proc.poke<std::uint64_t>(args, counters);
    proc.poke<std::uint64_t>(args + 8, done);
    proc.poke<std::uint32_t>(args + 16, iters);
    proc.poke<std::uint32_t>(args + 20, contended ? 1 : 0);

    const Tick t = m.runMain(
        proc,
        [threads](ThreadContext &ctx, VAddr a) -> GuestTask {
            const VAddr counters_va =
                co_await ctx.load<std::uint64_t>(a);
            (void)counters_va; // workers read it from args themselves
            const VAddr done_va =
                co_await ctx.load<std::uint64_t>(a + 8);
            co_await xt::createMthread(
                ctx,
                [](ThreadContext &mt, VAddr aa) -> GuestTask {
                    const VAddr c =
                        co_await mt.load<std::uint64_t>(aa);
                    const VAddr d =
                        co_await mt.load<std::uint64_t>(aa + 8);
                    const auto it =
                        co_await mt.load<std::uint32_t>(aa + 16);
                    const auto shared =
                        co_await mt.load<std::uint32_t>(aa + 20);
                    const VAddr target =
                        shared ? c : c + mt.tid() * 64ull;
                    for (unsigned i = 0; i < it; ++i)
                        co_await mt.amo(target,
                                        coherence::AmoOp::Inc);
                    co_await xt::mttopSignal(mt, d);
                },
                a, 0, threads - 1);
            co_await xt::cpuWaitAll(ctx, done_va, 0, threads - 1);
        },
        args);

    // Sanity: no lost increments.
    const std::uint64_t total = contended
        ? proc.peek<std::uint64_t>(counters)
        : [&] {
              std::uint64_t s = 0;
              for (unsigned i = 0; i < threads; ++i)
                  s += proc.peek<std::uint64_t>(counters + i * 64ull);
              return s;
          }();
    ccsvm_assert(total == static_cast<std::uint64_t>(threads) * iters,
                 "lost atomic increments");
    return t;
}

/** Same experiment on the APU GPU (atomics at memory). */
Tick
apuAtomics(unsigned threads, unsigned iters, bool contended)
{
    apu::ApuMachine m;
    const Addr counters =
        m.allocPinned(contended ? 64 : threads * 64ull);
    const Addr args = m.allocPinned(64);
    m.physMem().writeScalar(args, counters, 8);
    m.physMem().writeScalar(args + 8, iters, 8);
    m.physMem().writeScalar(args + 16, contended ? 1 : 0, 8);

    auto state = std::make_shared<core::TaskState>();
    state->remaining = static_cast<int>(threads);
    bool done = false;
    state->onComplete = [&] { done = true; };

    const Tick t0 = m.now();
    m.launchGpuTask(
        [](ThreadContext &tc, VAddr a) -> GuestTask {
            const Addr c = co_await tc.load<std::uint64_t>(a);
            const auto it = static_cast<unsigned>(
                co_await tc.load<std::uint64_t>(a + 8));
            const auto shared = static_cast<unsigned>(
                co_await tc.load<std::uint64_t>(a + 16));
            const Addr target = shared ? c : c + tc.tid() * 64ull;
            for (unsigned i = 0; i < it; ++i)
                co_await tc.amo(target, coherence::AmoOp::Inc);
        },
        args, threads, state);
    m.runUntil([&] { return done; });
    return m.now() - t0;
}

} // namespace
} // namespace ccsvm::bench

int
main()
{
    using namespace ccsvm;
    using namespace ccsvm::bench;

    constexpr unsigned iters = 50;
    std::vector<BenchPoint> points;
    for (const unsigned threads : {8, 32, 64}) {
        for (const bool contended : {false, true}) {
            for (const bool apu : {false, true}) {
                const std::string series =
                    std::string(apu ? "apu_mem" : "ccsvm_l1") +
                    (contended ? "_contended" : "_private");
                points.push_back(
                    {std::string(apu ? "abl_atomics/apu_at_memory/"
                                     : "abl_atomics/ccsvm_at_l1/") +
                         std::to_string(threads) + "/" + series,
                     [threads, contended, apu] {
                         SweepOutcome o;
                         o.run.ticks =
                             apu ? apuAtomics(threads, iters, contended)
                                 : ccsvmAtomics(threads, iters,
                                                contended);
                         o.run.correct = true;
                         return o;
                     },
                     [threads, series](const SweepOutcome &o,
                                       FigureTable &t) {
                         t.record(threads, series + "_ns",
                                  static_cast<double>(o.run.ticks) /
                                      tickNs / (threads * iters));
                     }});
            }
        }
    }
    return runBench(
        "Ablation A2: nanoseconds per atomic increment, atomics-at-L1 "
        "(CCSVM) vs atomics-at-memory (APU GPU)",
        "threads", std::move(points));
}
