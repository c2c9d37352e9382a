/**
 * @file
 * In-order CPU core model.
 *
 * Table 2: "4 in-order x86 cores, 2.9 GHz, max IPC=0.5" — one
 * instruction every two cycles, deliberately weak so any CCSVM win is
 * attributable to the memory system, not the cores. Each core has a
 * private L1, a 64-entry TLB and a hardware page-table walker; page
 * faults trap into the kernel model. The write syscall to the MIFD
 * (task launch) costs a fixed kernel-entry latency plus a NoC message
 * to the MIFD node.
 */

#ifndef CCSVM_CORE_CPU_CORE_HH
#define CCSVM_CORE_CPU_CORE_HH

#include <functional>
#include <string>

#include "base/types.hh"
#include "coherence/l1_cache.hh"
#include "core/thread_context.hh"
#include "noc/network.hh"
#include "runtime/process.hh"
#include "sim/clock.hh"
#include "sim/stats.hh"
#include "vm/tlb.hh"
#include "vm/walker.hh"

namespace ccsvm::core
{

/** CPU core timing parameters. */
struct CpuCoreConfig
{
    Tick clockPeriod = 345;  ///< 2.9 GHz
    /** Ticks per retired instruction. CCSVM CPU: 690 (IPC 0.5,
     * Table 2); APU CPU: 86 (max IPC 4). */
    Tick issuePeriod = 690;
    Tick syscallLatency = 690 * tickNs; ///< write-syscall kernel path
    Tick hostWaitPollPeriod = 1 * tickUs; ///< HostWait poll interval
    unsigned tlbEntries = 64;
};

/**
 * An uncacheable physical window (the APU's pinned zero-copy region):
 * accesses bypass the cache hierarchy and go straight to DRAM with
 * 64-byte write-combining / read-buffering, as on Llano's
 * high-bandwidth uncacheable path (paper Sec. 2.3).
 */
struct UncachedWindow
{
    Addr base = 0;
    Addr size = 0; ///< zero disables the window
    mem::PhysMem *phys = nullptr;
    mem::DramCtrl *dram = nullptr;
    Tick writePostLatency = 8 * tickNs; ///< posted WC store
    Tick readHitLatency = 5 * tickNs;   ///< same-block buffered read

    bool
    contains(Addr pa) const
    {
        return size != 0 && pa >= base && pa < base + size;
    }
};

/** Wiring record for the MIFD device. */
struct MifdPort
{
    MifdIface *dev = nullptr;
    noc::NodeId node = -1;
};

/** One in-order CPU core. */
class CpuCore : public CoreModel
{
  public:
    CpuCore(sim::EventQueue &eq, sim::StatRegistry &stats,
            const std::string &name, const CpuCoreConfig &cfg,
            coherence::L1Controller &l1, vm::Walker &walker,
            vm::Kernel &kernel, noc::Network &net, noc::NodeId my_node);

    /** Wire up the MIFD (optional: baseline CPUs have none). */
    void connectMifd(MifdPort port) { mifd_ = port; }

    /** Enable the uncacheable pinned window (APU machines). */
    void setUncachedWindow(UncachedWindow w) { uncached_ = w; }

    vm::Tlb &tlb() { return tlb_; }

    /**
     * Start a guest thread on this core. One thread runs at a time
     * (the kernel model pins one software thread per core).
     * @param on_done host callback at thread exit
     */
    void runThread(ThreadContext &tc, sim::GuestTask task,
                   std::function<void()> on_done = {});

    // CoreModel interface.
    void onOpDeclared(ThreadContext &tc) override;
    void onThreadDone(ThreadContext &tc) override;

  private:
    void issue(ThreadContext &tc);
    void translateAndAccess(ThreadContext &tc);
    void accessUncached(ThreadContext &tc, Addr paddr);
    void doSyscall(ThreadContext &tc);
    void pollHostWait(ThreadContext &tc);

    sim::EventQueue *eq_;
    CpuCoreConfig cfg_;
    sim::ClockDomain clock_;
    coherence::L1Controller *l1_;
    vm::Walker *walker_;
    vm::Kernel *kernel_;
    vm::Tlb tlb_;
    noc::Network *net_;
    noc::NodeId node_;
    MifdPort mifd_;

    bool running_ = false;
    std::function<void()> onDone_;
    Tick nextIssue_ = 0;
    UncachedWindow uncached_;
    Addr wcBlock_ = invalidAddr; ///< write-combining buffer tag
    Addr rdBlock_ = invalidAddr; ///< uncached read-buffer tag

    sim::Counter &instructions_;
    sim::Counter &memOps_;
    sim::Counter &syscalls_;
    sim::Counter &faults_;

    sim::Tracer &trc_;
    int lane_;
};

} // namespace ccsvm::core

#endif // CCSVM_CORE_CPU_CORE_HH
