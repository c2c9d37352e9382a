/**
 * @file
 * The CCSVM heterogeneous multicore chip: the paper's Figure 1 system,
 * assembled from Table 2's parameters.
 *
 * 4 in-order CPU cores (2.9 GHz, IPC 0.5) + 10 MTTOP cores (600 MHz,
 * 128 threads each, 8 ops/cycle) + 4 banked inclusive-L2/directory
 * slices + the MIFD, all on a 2D torus with 12 GB/s links; one
 * coherence protocol (MOESI by default; MSI/MESI selectable via
 * CcsvmConfig::protocol, per cluster via cpuProtocol/mttopProtocol)
 * spans every core, one virtual address space per process spans CPU
 * and MTTOP threads, and the whole chip is sequentially consistent
 * (no write buffers, one memory op per thread).
 */

#ifndef CCSVM_SYSTEM_CCSVM_MACHINE_HH
#define CCSVM_SYSTEM_CCSVM_MACHINE_HH

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "coherence/cache_system.hh"
#include "core/cpu_core.hh"
#include "core/mttop_core.hh"
#include "dev/mifd.hh"
#include "mem/dram.hh"
#include "mem/phys_mem.hh"
#include "noc/torus.hh"
#include "runtime/process.hh"
#include "sim/eventq.hh"
#include "sim/parteventq.hh"
#include "sim/stats.hh"
#include "vm/kernel.hh"
#include "vm/walker.hh"

namespace ccsvm::workloads::replay
{
class TraceCapture;
} // namespace ccsvm::workloads::replay

namespace ccsvm::system
{

/** Full chip configuration (defaults = paper Table 2). */
struct CcsvmConfig
{
    int numCpuCores = 4;
    int numMttopCores = 10;
    int numL2Banks = 4;

    /** Chip-wide coherence protocol (paper default: MOESI). */
    coherence::Protocol protocol = coherence::Protocol::MOESI;

    /**
     * Per-cluster heterogeneous protocols: the CPU cluster's L1s and
     * the MTTOP cluster's L1s may run different protocols against the
     * shared directory, which mediates mixed pairs (requestor-policy
     * sole-copy fills; dirty sharing only when both clusters have O).
     * Unset fields default to `protocol`, so every existing config
     * behaves exactly as before.
     */
    std::optional<coherence::Protocol> cpuProtocol;
    std::optional<coherence::Protocol> mttopProtocol;

    /**
     * Home-slice hash mapping block addresses to L2/directory banks
     * (driver flag --slice-hash); the cache system's homeOf resolves
     * every block's home through it. The default (mod) is
     * byte-identical to the pre-seam tree; xorfold/skew spread
     * power-of-two strides that hot-spot one bank under mod.
     */
    coherence::SliceHashKind sliceHash = coherence::SliceHashKind::Mod;

    core::CpuCoreConfig cpu;
    core::MttopCoreConfig mttop;

    coherence::L1Config cpuL1{64 * 1024, 4, 690, 8};
    coherence::L1Config mttopL1{16 * 1024, 4, 1667, 16};
    /** 4 x 1 MB banks; l2.replace is the L2/directory replacement
     * policy (driver flag --l2-replace; see cache/replacer.hh). */
    coherence::DirConfig l2;

    mem::DramConfig dram;    ///< 100 ns
    noc::TorusConfig noc;    ///< computed from core counts if 0x0
    vm::WalkerConfig walker;
    vm::KernelConfig kernel;
    dev::MifdConfig mifd;

    Addr physMemBytes = 2ull * 1024 * 1024 * 1024;
    /** Frames below this are reserved (device/kernel image). */
    Addr framePoolBase = 16 * 1024 * 1024;

    /**
     * Region-based coherence: page-aligned virtual regions with a
     * coherence attribute (coherent / bypass / protocol-override),
     * installed into every process this machine creates (driver flag
     * --region name:base:size:attr). Workloads may add their own
     * per-buffer regions on top (driver flag --region-hints). Empty
     * by default, which leaves every access on the default coherent
     * path — bit-identical to a region-unaware machine.
     */
    std::vector<vm::MemRegion> regions;

    /** Enable the SWMR monitor (tests; small host-time cost). */
    bool swmrChecks = true;

    /**
     * Transaction-trace categories ("coh,noc,vm,kernel,engine" or
     * "all"; driver flag --trace-categories). Empty (the default)
     * disables tracing entirely: no barrier hook is installed and
     * every record site reduces to one load + mask test, so default
     * runs are unperturbed. Export with stats().tracer().writeJson().
     */
    std::string traceCategories;

    /**
     * Time-series sampling interval in ticks (driver flag
     * --sample-interval); 0 = off. Samples are taken at the first
     * window barrier at or past each interval boundary — the window
     * schedule is thread-count independent, so the series is too.
     */
    Tick sampleInterval = 0;

    /**
     * Record the guest-side op stream of runMain into this `.ccsvmt`
     * trace file (driver flag --capture-out; docs/TRACE_FORMAT.md);
     * empty = off. Capture is a pure host-side observer: the run's
     * stats are byte-identical to an uncaptured run, and the file is
     * byte-identical at any simThreads value. Replay it with the
     * `replay` workload.
     */
    std::string captureOut;

    /**
     * Host worker threads for the partitioned event engine:
     *   -1 = consult the CCSVM_SIM_THREADS environment variable
     *        (absent or invalid -> 1),
     *    0 = one worker per hardware thread,
     *    N = exactly N workers.
     * The partition/window schedule — and therefore every simulated
     * statistic — is identical at any value; the thread count only
     * changes how many host threads execute each window.
     */
    int simThreads = -1;
};

/** Resolve CcsvmConfig::simThreads to a concrete worker count. */
int resolveSimThreads(int requested);

/** The simulated CCSVM chip. */
class CcsvmMachine
{
  public:
    explicit CcsvmMachine(CcsvmConfig cfg = {});
    ~CcsvmMachine();

    // --- public API for workloads and examples ----------------------

    /** Create a guest process (address space + heap). */
    runtime::Process &createProcess();

    /**
     * Start a guest thread on CPU core @p cpu_idx.
     * @param on_done host callback at thread exit
     */
    void spawnCpuThread(int cpu_idx, runtime::Process &proc,
                        core::KernelFn fn, vm::VAddr args,
                        std::function<void()> on_done = {});

    /**
     * Convenience: run @p fn as the process's main thread on CPU 0
     * and simulate until it exits.
     * @return simulated ticks consumed
     */
    Tick runMain(runtime::Process &proc, core::KernelFn fn,
                 vm::VAddr args = 0);

    /** Run the event loop until fully idle (or @p limit). */
    void run(Tick limit = sim::PartEngine::maxTick);

    /**
     * Run until the host-side predicate @p done is true (checked at
     * every window barrier) or the machine drains.
     * @return true iff the predicate fired
     */
    bool runUntil(const std::function<bool()> &done,
                  Tick limit = sim::PartEngine::maxTick);

    /** Committed simulated time (base of the last engine window). */
    Tick now() const { return engine_.now(); }
    /** The configuration this machine was built with. */
    const CcsvmConfig &config() const { return cfg_; }
    /** The partitioned engine (bench/diagnostic access). */
    sim::PartEngine &engine() { return engine_; }
    sim::StatRegistry &stats() { return stats_; }
    mem::PhysMem &physMem() { return phys_; }
    vm::Kernel &kernel() { return *kernel_; }
    dev::Mifd &mifd() { return *mifd_; }

    int numCpuCores() const { return cfg_.numCpuCores; }
    int numMttopCores() const { return cfg_.numMttopCores; }
    /** Resolved per-cluster protocols (default: config().protocol). */
    coherence::Protocol cpuProtocol() const { return *cfg_.cpuProtocol; }
    coherence::Protocol mttopProtocol() const { return *cfg_.mttopProtocol; }
    /** Guest threads the MTTOP cores can hold at once. */
    unsigned
    mttopContexts() const
    {
        return static_cast<unsigned>(cfg_.numMttopCores) *
               cfg_.mttop.numContexts;
    }

    /** Off-chip DRAM transactions so far (Figure 9's metric). */
    std::uint64_t dramAccesses() const;

    /** One time-series column: its JSON name and the counters whose
     * sum it records. */
    struct SeriesColumn
    {
        const char *name;
        std::vector<const sim::Counter *> counters;
    };

    /** One time-series sample: each column's cumulative total,
     * committed at a window barrier (tick = the window base). */
    struct Sample
    {
        Tick t = 0;
        std::vector<std::uint64_t> values; ///< one per seriesColumns()
    };

    /** The time-series columns (empty unless sampleInterval > 0). */
    const std::vector<SeriesColumn> &
    seriesColumns() const
    {
        return series_;
    }

    /** Samples collected so far (empty unless sampleInterval > 0). */
    const std::vector<Sample> &samples() const { return samples_; }

    /** Text dump of every statistic (gem5 stats.txt style). */
    void dumpStats(std::ostream &os) const { stats_.dump(os); }

  private:
    void buildNodes(const coherence::CacheSystemConfig &caches);
    /** Resolve the time-series columns to their counters (after
     * buildNodes, which creates every one of them). */
    void resolveSeries();
    /** Engine barrier hook: trace flush + time-series sampling. */
    void onWindowBarrier(Tick base, Tick end);

    /**
     * Partition map of the chip: the two core clusters run
     * independently of each other and of the memory system inside
     * each conservative window; every directory/L2 home bank gets its
     * own partition; DRAM, the kernel/VM machinery (walkers, PTE-line
     * filter, fault service), and the MIFD share the "system"
     * partition.
     */
    enum : int
    {
        partCpu = 0,
        partMttop = 1,
        partSys = 2,
        partBank0 = 3,
    };
    sim::EventQueue &cpuQ() { return engine_.queue(partCpu); }
    sim::EventQueue &mttopQ() { return engine_.queue(partMttop); }
    sim::EventQueue &sysQ() { return engine_.queue(partSys); }
    sim::EventQueue &bankQ(int b)
    {
        return engine_.queue(partBank0 + b);
    }

    CcsvmConfig cfg_;
    sim::PartEngine engine_;
    sim::StatRegistry stats_;
    mem::PhysMem phys_;

    std::unique_ptr<mem::DramCtrl> dram_;
    std::unique_ptr<noc::TorusNetwork> net_;
    std::unique_ptr<vm::Kernel> kernel_;

    std::unique_ptr<coherence::CacheSystem> caches_;
    std::unique_ptr<vm::PteLineFilter> pteFilter_;
    std::vector<std::unique_ptr<vm::Walker>> walkers_;
    std::vector<std::unique_ptr<core::CpuCore>> cpuCores_;
    std::vector<std::unique_ptr<core::MttopCore>> mttopCores_;
    std::unique_ptr<dev::Mifd> mifd_;

    /** A CPU thread: context plus its kernel function. The function
     * object must outlive the coroutine — coroutine frames reference
     * the lambda's captures rather than copying them. */
    struct CpuThread
    {
        core::ThreadContext tc;
        core::KernelFn fn;
    };

    std::vector<std::unique_ptr<runtime::Process>> processes_;
    std::vector<std::unique_ptr<CpuThread>> cpuThreads_;

    std::vector<SeriesColumn> series_;
    std::vector<Sample> samples_;
    Tick nextSample_ = 0;
    int engineLane_ = 0;

    /** Trace capture (cfg_.captureOut); armed by the first runMain. */
    std::unique_ptr<workloads::replay::TraceCapture> capture_;
};

} // namespace ccsvm::system

#endif // CCSVM_SYSTEM_CCSVM_MACHINE_HH
