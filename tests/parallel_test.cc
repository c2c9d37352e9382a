/**
 * @file
 * The parallel sweep engine's contract, from both ends:
 *
 *  - sim::SweepRunner itself — results land in point order whatever
 *    the worker count, --jobs 1 runs on the calling thread in index
 *    order, worker exceptions propagate to the caller.
 *  - Simulator instance isolation — two differently-configured
 *    machines running concurrently on two threads each produce
 *    byte-identical stats to their own single-threaded golden run.
 *    This is the test the CI ThreadSanitizer lane exists for (ctest
 *    label "concurrent"): any cross-instance mutable state shows up
 *    here as a race or a stats mismatch.
 *  - The seedable matmul inputs — seed 0 reproduces the historical
 *    deterministic inputs, a nonzero seed is deterministic per seed
 *    and still validates.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "sim/stats.hh"
#include "sim/sweep.hh"
#include "system/ccsvm_machine.hh"
#include "workloads/registry.hh"
#include "workloads/workloads.hh"

namespace ccsvm
{
namespace
{

using workloads::RunResult;

TEST(SweepRunner, MapReturnsResultsInPointOrder)
{
    std::vector<std::function<int()>> tasks;
    for (int i = 0; i < 64; ++i)
        tasks.push_back([i] { return i * i; });
    const sim::SweepRunner runner(4);
    const std::vector<int> out = runner.map<int>(tasks);
    ASSERT_EQ(out.size(), tasks.size());
    for (int i = 0; i < 64; ++i)
        EXPECT_EQ(out[static_cast<std::size_t>(i)], i * i);
}

TEST(SweepRunner, SingleJobRunsSequentiallyOnCallingThread)
{
    const auto caller = std::this_thread::get_id();
    std::vector<int> order;
    std::vector<std::function<int()>> tasks;
    for (int i = 0; i < 8; ++i) {
        tasks.push_back([i, caller, &order] {
            EXPECT_EQ(std::this_thread::get_id(), caller);
            order.push_back(i);
            return i;
        });
    }
    const sim::SweepRunner runner(1);
    EXPECT_EQ(runner.jobs(), 1u);
    runner.map<int>(tasks);
    ASSERT_EQ(order.size(), 8u);
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(SweepRunner, WorkerExceptionPropagatesToCaller)
{
    std::vector<std::function<int()>> tasks;
    std::atomic<int> completed{0};
    for (int i = 0; i < 16; ++i) {
        tasks.push_back([i, &completed]() -> int {
            if (i == 5)
                throw std::runtime_error("point 5 exploded");
            completed.fetch_add(1, std::memory_order_relaxed);
            return i;
        });
    }
    const sim::SweepRunner runner(4);
    EXPECT_THROW(runner.map<int>(tasks), std::runtime_error);
}

TEST(SweepRunner, ZeroJobsResolvesToAtLeastOneWorker)
{
    const sim::SweepRunner runner(0);
    EXPECT_GE(runner.jobs(), 1u);
    EXPECT_GE(sim::defaultSweepJobs(), 1u);
}

/** One experiment: run a workload on a fresh machine, return the
 * headline numbers plus the machine's full stats JSON. */
struct GoldenRun
{
    RunResult r;
    std::string stats;
};

GoldenRun
runMatmulMsi()
{
    system::CcsvmConfig cfg;
    cfg.protocol = coherence::Protocol::MSI;
    system::CcsvmMachine m(cfg);
    GoldenRun g;
    g.r = workloads::matmulXthreads(m, 12);
    std::ostringstream ss;
    m.stats().dumpJson(ss);
    g.stats = ss.str();
    return g;
}

GoldenRun
runSpmmMoesiSmallMachine()
{
    system::CcsvmConfig cfg;
    cfg.protocol = coherence::Protocol::MOESI;
    cfg.numMttopCores = 4;
    cfg.numL2Banks = 2;
    system::CcsvmMachine m(cfg);
    workloads::SpmmParams p;
    p.n = 24;
    GoldenRun g;
    g.r = workloads::spmmXthreads(m, p);
    std::ostringstream ss;
    m.stats().dumpJson(ss);
    g.stats = ss.str();
    return g;
}

// The instance-isolation contract: two differently-configured
// machines on two threads, each byte-identical to its own
// single-threaded golden run. Under the TSan lane this also proves
// the absence of cross-instance data races.
TEST(ParallelSim, ConcurrentMachinesMatchSingleThreadedGolden)
{
    const GoldenRun golden_a = runMatmulMsi();
    const GoldenRun golden_b = runSpmmMoesiSmallMachine();

    GoldenRun a, b;
    std::thread ta([&a] { a = runMatmulMsi(); });
    std::thread tb([&b] { b = runSpmmMoesiSmallMachine(); });
    ta.join();
    tb.join();

    EXPECT_TRUE(a.r.correct);
    EXPECT_TRUE(b.r.correct);
    EXPECT_EQ(a.r.ticks, golden_a.r.ticks);
    EXPECT_EQ(b.r.ticks, golden_b.r.ticks);
    EXPECT_EQ(a.r.dramAccesses, golden_a.r.dramAccesses);
    EXPECT_EQ(b.r.dramAccesses, golden_b.r.dramAccesses);
    EXPECT_EQ(a.stats, golden_a.stats);
    EXPECT_EQ(b.stats, golden_b.stats);
}

// The same contract through the SweepRunner itself, including many
// points per worker.
TEST(ParallelSim, SweepOfSamePointIsHomogeneous)
{
    std::vector<std::function<GoldenRun()>> tasks;
    for (int i = 0; i < 4; ++i)
        tasks.push_back([] { return runMatmulMsi(); });
    const sim::SweepRunner runner(4);
    const std::vector<GoldenRun> out = runner.map<GoldenRun>(tasks);
    ASSERT_EQ(out.size(), 4u);
    for (const GoldenRun &g : out) {
        EXPECT_EQ(g.r.ticks, out[0].r.ticks);
        EXPECT_EQ(g.stats, out[0].stats);
    }
}

TEST(MatmulSeed, ZeroKeepsHistoricalInputsAndNonzeroValidates)
{
    // Seed 0 twice: byte-identical (the historical deterministic
    // inputs).
    system::CcsvmConfig cfg;
    const RunResult legacy1 = [&] {
        system::CcsvmMachine m(cfg);
        return workloads::matmulXthreads(m, 12, false, 0);
    }();
    const RunResult legacy2 = [&] {
        system::CcsvmMachine m(cfg);
        return workloads::matmulXthreads(m, 12, false, 0);
    }();
    EXPECT_EQ(legacy1.ticks, legacy2.ticks);
    EXPECT_TRUE(legacy1.correct);

    // A nonzero seed validates and is deterministic per seed.
    const RunResult seeded1 = [&] {
        system::CcsvmMachine m(cfg);
        return workloads::matmulXthreads(m, 12, false, 7);
    }();
    const RunResult seeded2 = [&] {
        system::CcsvmMachine m(cfg);
        return workloads::matmulXthreads(m, 12, false, 7);
    }();
    EXPECT_TRUE(seeded1.correct);
    EXPECT_EQ(seeded1.ticks, seeded2.ticks);

    // The registry routes WorkloadParams::matmulSeed through to the
    // workload.
    const auto *entry =
        workloads::WorkloadRegistry::instance().find("matmul");
    ASSERT_NE(entry, nullptr);
    ASSERT_TRUE(entry->seed);
    workloads::WorkloadParams p;
    p.matmulSeed = 7;
    EXPECT_EQ(entry->seed(p), 7u);
}

} // namespace
} // namespace ccsvm
