/**
 * @file
 * Workload integration tests: every paper workload on every system it
 * runs on, validated against host golden models, plus the qualitative
 * relationships the paper's figures rest on.
 */

#include <gtest/gtest.h>

#include "workloads/workloads.hh"

namespace ccsvm::workloads
{
namespace
{

TEST(Matmul, XthreadsCorrectAcrossSizes)
{
    for (unsigned n : {4u, 8u, 16u}) {
        system::CcsvmMachine m;
        RunResult r = matmulXthreads(m, n);
        EXPECT_TRUE(r.correct) << "n=" << n;
        EXPECT_GT(r.ticks, 0u);
    }
}

TEST(Matmul, CpuSingleCorrect)
{
    RunResult r = matmulCpuSingle(16);
    EXPECT_TRUE(r.correct);
}

TEST(Matmul, OpenClCorrectAndInitDominated)
{
    RunResult r = matmulOpenCl(16);
    EXPECT_TRUE(r.correct);
    // Full runtime is dominated by init+JIT; the no-init number must
    // be dramatically smaller.
    EXPECT_GT(r.ticks, 100 * tickMs);
    EXPECT_LT(r.ticksNoInit, r.ticks / 100);
}

TEST(Matmul, CcsvmBeatsApuAtSmallSizes)
{
    // Figure 5's headline: at small matrix sizes CCSVM/xthreads wins
    // by orders of magnitude against the APU, even ignoring init.
    const unsigned n = 16;
    system::CcsvmMachine m;
    RunResult ccsvm = matmulXthreads(m, n);
    RunResult apu = matmulOpenCl(n);
    RunResult cpu = matmulCpuSingle(n);
    ASSERT_TRUE(ccsvm.correct && apu.correct && cpu.correct);
    EXPECT_LT(ccsvm.ticks * 10, apu.ticksNoInit)
        << "CCSVM should beat the APU (no-init) by >10x at n=16";
    EXPECT_LT(ccsvm.ticks, cpu.ticks)
        << "CCSVM should beat the single CPU core at n=16";
}

TEST(Matmul, CcsvmUsesFarFewerDramAccesses)
{
    // Figure 9: the APU communicates through DRAM, CCSVM on-chip.
    const unsigned n = 16;
    system::CcsvmMachine m;
    RunResult ccsvm = matmulXthreads(m, n);
    RunResult apu = matmulOpenCl(n);
    ASSERT_TRUE(ccsvm.correct && apu.correct);
    EXPECT_LT(ccsvm.dramAccesses * 4, apu.dramAccesses);
}

TEST(Apsp, AllSystemsCorrect)
{
    const unsigned n = 12;
    system::CcsvmMachine m;
    RunResult x = apspXthreads(m, n);
    RunResult c = apspCpuSingle(n);
    RunResult o = apspOpenCl(n);
    EXPECT_TRUE(x.correct);
    EXPECT_TRUE(c.correct);
    EXPECT_TRUE(o.correct);
}

TEST(Apsp, ApuNeverBeatsCpuAndCcsvmWins)
{
    // Figure 6: per-iteration relaunch costs sink the APU below the
    // plain CPU; CCSVM's on-chip barrier wins.
    const unsigned n = 16;
    system::CcsvmMachine m;
    RunResult x = apspXthreads(m, n);
    RunResult c = apspCpuSingle(n);
    RunResult o = apspOpenCl(n);
    ASSERT_TRUE(x.correct && c.correct && o.correct);
    EXPECT_GT(o.ticksNoInit, c.ticks)
        << "APU should lose to the CPU core on APSP";
    EXPECT_LT(x.ticks, o.ticksNoInit / 50)
        << "CCSVM should beat the APU by ~2 orders of magnitude";
}

TEST(BarnesHut, XthreadsMatchesGolden)
{
    BarnesHutParams p;
    p.bodies = 48;
    p.steps = 2;
    system::CcsvmMachine m;
    RunResult r = barnesHutXthreads(m, p);
    EXPECT_TRUE(r.correct);
}

TEST(BarnesHut, CpuSingleMatchesGolden)
{
    BarnesHutParams p;
    p.bodies = 48;
    p.steps = 2;
    RunResult r = barnesHutCpuSingle(p);
    EXPECT_TRUE(r.correct);
}

TEST(BarnesHut, PthreadsMatchesGolden)
{
    BarnesHutParams p;
    p.bodies = 48;
    p.steps = 2;
    RunResult r = barnesHutPthreads(p);
    EXPECT_TRUE(r.correct);
}

TEST(Spmm, XthreadsMatchesGoldenAcrossDensities)
{
    for (double density : {0.02, 0.08}) {
        SpmmParams p;
        p.n = 24;
        p.density = density;
        system::CcsvmMachine m;
        RunResult r = spmmXthreads(m, p);
        EXPECT_TRUE(r.correct) << "density=" << density;
    }
}

TEST(Spmm, CpuSingleMatchesGolden)
{
    SpmmParams p;
    p.n = 24;
    p.density = 0.05;
    RunResult r = spmmCpuSingle(p);
    EXPECT_TRUE(r.correct);
}

} // namespace
} // namespace ccsvm::workloads
