/**
 * @file
 * The AMD Llano A8-3850 APU baseline, simulated.
 *
 * The paper compares its CCSVM simulation against this chip as real
 * hardware; we cannot have the hardware, so we build its structural
 * model from Table 2 and Sec. 2.3: four out-of-order x86 cores
 * (max IPC 4, 2.9 GHz) with private caches kept coherent through a
 * Unified-Northbridge-style directory at memory (no shared data
 * cache), a 5-SIMD-unit VLIW GPU that is NOT coherent with the CPUs,
 * a pinned physical region that CPUs access uncached (the zero-copy
 * OpenCL path) and the GPU accesses through its coalescer, 8 GiB of
 * 72 ns DRAM, and a crossbar between the CPU cores.
 *
 * The deliberate handicaps the paper gives itself (Sec. 5.1) are
 * reproduced: this machine's CPUs are 8x stronger per instruction
 * than the CCSVM machine's, and its GPU can pack up to 4 ops per
 * VLIW instruction.
 */

#ifndef CCSVM_APU_APU_MACHINE_HH
#define CCSVM_APU_APU_MACHINE_HH

#include <deque>
#include <memory>
#include <vector>

#include "apu/gpu.hh"
#include "coherence/cache_system.hh"
#include "core/cpu_core.hh"
#include "mem/dram.hh"
#include "mem/phys_mem.hh"
#include "noc/crossbar.hh"
#include "runtime/process.hh"
#include "sim/eventq.hh"
#include "sim/stats.hh"
#include "vm/kernel.hh"
#include "vm/walker.hh"

namespace ccsvm::apu
{

/** Full APU configuration (defaults = Table 2's A8-3850). */
struct ApuConfig
{
    int numCpuCores = 4;
    int numSimdUnits = 5;

    core::CpuCoreConfig cpu{345, /*issuePeriod=*/86,
                            690 * tickNs, 1 * tickUs, 64};
    /** Private per-core cache (L1+L2 collapsed: 1 MB capacity at a
     * blended latency; Fig. 9 depends on capacity, not levels). */
    coherence::L1Config cpuCache{1024 * 1024, 16, 2000, 8};
    GpuSimdUnitConfig gpu;

    mem::DramConfig dram{72 * tickNs, 25.6};
    noc::CrossbarConfig xbar{6, 24.0, 4 * tickNs};
    vm::WalkerConfig walker;
    vm::KernelConfig kernel;

    Addr physMemBytes = 8ull * 1024 * 1024 * 1024;
    Addr framePoolBase = 16 * 1024 * 1024;
    /** Pinned GPU-visible region (uncached for CPUs). */
    Addr pinnedBase = 2ull * 1024 * 1024 * 1024;
    Addr pinnedSize = 512ull * 1024 * 1024;

    Tick threadSpawnLatency = 15 * tickUs; ///< pthread_create
};

/** The simulated Llano-class APU. */
class ApuMachine
{
  public:
    explicit ApuMachine(ApuConfig cfg = {});
    ~ApuMachine();

    runtime::Process &createProcess();

    /** Start a guest thread on CPU @p cpu_idx after the
     * pthread_create cost. */
    void spawnCpuThread(int cpu_idx, runtime::Process &proc,
                        core::KernelFn fn, vm::VAddr args,
                        std::function<void()> on_done = {});

    /** Run @p fn as main on CPU 0, started at once as on the CCSVM
     * chip, until it exits; returns ticks. */
    Tick runMain(runtime::Process &proc, core::KernelFn fn,
                 vm::VAddr args = 0);

    void run(Tick limit = sim::EventQueue::maxTick);
    /**
     * Run until the host-side predicate @p done is true (checked
     * after every event) or the machine drains.
     * @return true iff the predicate fired
     */
    bool runUntil(const std::function<bool()> &done,
                  Tick limit = sim::EventQueue::maxTick);
    Tick now() const { return eq_.now(); }
    sim::StatRegistry &stats() { return stats_; }
    mem::PhysMem &physMem() { return phys_; }
    /** The CPU caches and their directory at memory; also the
     * coherent functional view of memory. */
    coherence::CacheSystem &caches() { return *caches_; }
    vm::Kernel &kernel() { return *kernel_; }
    const ApuConfig &config() const { return cfg_; }

    /** Allocate pinned GPU-visible physical memory. */
    Addr allocPinned(Addr bytes);

    /**
     * Dispatch @p n work-items of @p fn over the SIMD units in
     * wavefront-sized chunks (driver overhead is charged by the OpenCL
     * runtime before calling this).
     */
    void launchGpuTask(core::KernelFn fn, Addr args_pa, unsigned n,
                       std::shared_ptr<core::TaskState> state);

    /** Off-chip DRAM transactions so far (Figure 9's metric). */
    std::uint64_t dramAccesses() const;

  private:
    /** Bind a new thread running @p fn to CPU @p cpu_idx; the
     * returned callback starts it. */
    sim::Callback newCpuThread(int cpu_idx, runtime::Process &proc,
                               core::KernelFn fn, vm::VAddr args,
                               std::function<void()> on_done);
    void dispatchGpu();

    ApuConfig cfg_;
    sim::EventQueue eq_;
    sim::StatRegistry stats_;
    mem::PhysMem phys_;

    std::unique_ptr<mem::DramCtrl> dram_;
    std::unique_ptr<noc::CrossbarNetwork> xbar_;
    std::unique_ptr<vm::Kernel> kernel_;

    std::unique_ptr<coherence::CacheSystem> caches_;
    std::unique_ptr<vm::PteLineFilter> pteFilter_;
    std::vector<std::unique_ptr<vm::Walker>> walkers_;
    std::vector<std::unique_ptr<core::CpuCore>> cpuCores_;
    std::vector<std::unique_ptr<GpuSimdUnit>> gpuUnits_;

    /** A CPU thread: context plus its kernel function (the function
     * object must outlive the coroutine frame). */
    struct CpuThread
    {
        core::ThreadContext tc;
        core::KernelFn fn;
    };

    std::vector<std::unique_ptr<runtime::Process>> processes_;
    std::vector<std::unique_ptr<CpuThread>> cpuThreads_;

    Addr pinnedBrk_;
    std::deque<core::TaskChunk> gpuPending_;
};

} // namespace ccsvm::apu

#endif // CCSVM_APU_APU_MACHINE_HH
