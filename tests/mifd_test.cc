/**
 * @file
 * MIFD unit tests: round-robin chunk distribution, SIMD-width
 * splitting, queueing on context exhaustion, back-to-back tasks from
 * multiple processes (CR3 switches), and error-register semantics.
 */

#include <gtest/gtest.h>

#include "runtime/xthreads.hh"
#include "system/ccsvm_machine.hh"

namespace ccsvm::dev
{
namespace
{

using core::TaskDescriptor;
using core::ThreadContext;
using runtime::Process;
using sim::GuestTask;
using system::CcsvmConfig;
using system::CcsvmMachine;
using vm::VAddr;

/** Launch a no-op task of @p threads directly at the MIFD and run to
 * completion. */
void
launchNoop(CcsvmMachine &m, Process &proc, unsigned threads)
{
    bool done = false;
    TaskDescriptor desc;
    desc.fn = [](ThreadContext &, VAddr) -> GuestTask { co_return; };
    desc.firstTid = 0;
    desc.lastTid = threads - 1;
    desc.process = &proc;
    desc.onComplete = [&done] { done = true; };
    m.mifd().submitTask(std::move(desc));
    const bool finished = m.runUntil([&done] { return done; });
    ASSERT_TRUE(finished) << "task never completed";
}

TEST(Mifd, SplitsIntoSimdWidthChunks)
{
    CcsvmMachine m;
    Process &proc = m.createProcess();
    launchNoop(m, proc, 60); // 7 chunks of 8, one of 4
    EXPECT_EQ(m.stats().get("mifd.chunks"), 8u);
    EXPECT_EQ(m.stats().get("mifd.tasks"), 1u);
}

TEST(Mifd, RoundRobinsAcrossCores)
{
    CcsvmMachine m;
    Process &proc = m.createProcess();
    launchNoop(m, proc, 10 * 8); // exactly one chunk per core
    for (int i = 0; i < m.numMttopCores(); ++i) {
        EXPECT_EQ(m.stats().get("mttop" + std::to_string(i) +
                                ".threads"),
                  8u)
            << "core " << i << " did not get its chunk";
    }
}

TEST(Mifd, OversubscriptionRunsInWaves)
{
    CcsvmConfig cfg;
    cfg.numMttopCores = 2;
    cfg.mttop.numContexts = 8;
    CcsvmMachine m(cfg);
    Process &proc = m.createProcess();
    // 64 threads > 16 contexts: must still complete (in waves).
    launchNoop(m, proc, 64);
    EXPECT_EQ(m.stats().get("mifd.chunks"), 8u);
    // requireAll was set (default): shortfall flagged.
    EXPECT_EQ(m.mifd().errorRegister(), 1u);
    m.mifd().clearErrorRegister();
    EXPECT_EQ(m.mifd().errorRegister(), 0u);
}

TEST(Mifd, NoErrorWhenTaskFits)
{
    CcsvmMachine m;
    Process &proc = m.createProcess();
    launchNoop(m, proc, 256);
    EXPECT_EQ(m.mifd().errorRegister(), 0u);
    EXPECT_EQ(m.stats().get("mifd.errors"), 0u);
}

TEST(Mifd, BackToBackTasksFromDifferentProcessesFlushTlbs)
{
    CcsvmMachine m;
    Process &p1 = m.createProcess();
    Process &p2 = m.createProcess();
    launchNoop(m, p1, 80);
    launchNoop(m, p2, 80);
    launchNoop(m, p1, 80);
    // Every core that ran tasks for both processes flushed on the
    // CR3 switch at least once.
    std::uint64_t switches = 0;
    for (int i = 0; i < m.numMttopCores(); ++i)
        switches += m.stats().get("mttop" + std::to_string(i) +
                                  ".cr3Switches");
    EXPECT_GE(switches, 10u);
}

TEST(Mifd, ManySmallTasksAllComplete)
{
    CcsvmMachine m;
    Process &proc = m.createProcess();
    int completed = 0;
    constexpr int tasks = 40;
    for (int t = 0; t < tasks; ++t) {
        TaskDescriptor desc;
        desc.fn = [](ThreadContext &ctx, VAddr) -> GuestTask {
            co_await ctx.compute(10);
        };
        desc.firstTid = 0;
        desc.lastTid = 3;
        desc.process = &proc;
        desc.onComplete = [&completed] { ++completed; };
        m.mifd().submitTask(std::move(desc));
    }
    m.run();
    EXPECT_EQ(completed, tasks);
    EXPECT_EQ(m.stats().get("mifd.tasks"),
              static_cast<std::uint64_t>(tasks));
}

TEST(Mifd, DispatchLatencyIsChargedPerChunk)
{
    // Two equal tasks; the one split into more chunks must take
    // longer to fully dispatch (device occupancy per chunk).
    CcsvmMachine m;
    Process &proc = m.createProcess();
    const Tick t0 = m.now();
    launchNoop(m, proc, 8); // one chunk
    const Tick one_chunk = m.now() - t0;
    const Tick t1 = m.now();
    launchNoop(m, proc, 256); // 32 chunks
    const Tick many_chunks = m.now() - t1;
    EXPECT_GT(many_chunks, one_chunk);
}

TEST(MifdDeathTest, CoreNarrowerThanTheSimdWidthPanics)
{
    // Chunks are never split across cores, so a core with fewer
    // contexts than the SIMD width could never take one: a launch
    // would wait forever. Wiring such a core must panic instead.
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    CcsvmConfig cfg;
    cfg.simThreads = 1;
    cfg.mttop.numContexts = cfg.mifd.simdWidth - 1;
    EXPECT_DEATH(CcsvmMachine{cfg},
                 "MTTOP core 0 has 7 thread contexts, fewer than the "
                 "MIFD's SIMD width 8");
}

} // namespace
} // namespace ccsvm::dev
