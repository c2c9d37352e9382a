/**
 * @file
 * MTTOP (massively-threaded throughput-oriented) core model.
 *
 * Table 2: "10 MTTOP cores with Alpha-like ISA, 600 MHz. Each MTTOP
 * core supports 128 threads and can simultaneously execute 8 threads"
 * for a combined max of 80 operations per cycle. The contexts, the
 * issue loop and thread exit are the shared ThroughputCore
 * (core/throughput_core.hh); what is the MTTOP's own is one
 * instruction per cycle and the memory path. Memory ops translate
 * through the per-core TLB and go to the core's coherent L1; atomics
 * run there after acquiring exclusive coherence permission (Sec.
 * 3.2.4). A page fault interrupts a CPU core through the MIFD (Sec.
 * 3.2.1). A CR3 switch (task from a different process) flushes the
 * TLB.
 */

#ifndef CCSVM_CORE_MTTOP_CORE_HH
#define CCSVM_CORE_MTTOP_CORE_HH

#include <string>

#include "base/types.hh"
#include "coherence/l1_cache.hh"
#include "core/throughput_core.hh"
#include "runtime/process.hh"
#include "sim/stats.hh"
#include "vm/tlb.hh"
#include "vm/walker.hh"

namespace ccsvm::core
{

/** MTTOP core timing parameters. */
struct MttopCoreConfig
{
    Tick clockPeriod = 1667;   ///< 600 MHz
    unsigned issueWidth = 8;   ///< thread-ops per cycle
    unsigned numContexts = 128;
    unsigned tlbEntries = 64;
};

/** One MTTOP core. */
class MttopCore final : public ThroughputCore
{
  public:
    MttopCore(sim::EventQueue &eq, sim::StatRegistry &stats,
              const std::string &name, const MttopCoreConfig &cfg,
              coherence::L1Controller &l1, vm::Walker &walker,
              vm::Kernel &kernel);

    /** Wire up the MIFD for fault relay and context accounting;
     * @p port is this core's index at the device. */
    void connectMifd(MifdIface *mifd, unsigned port);

    /** Accept a SIMD-width chunk of a task; called by the MIFD after
     * dispatch. */
    void assignChunk(TaskChunk chunk);

  private:
    Cycles computeCycles(std::uint64_t n) override { return n; }
    void access(ThreadContext &tc) override;

    coherence::L1Controller *l1_;
    vm::Walker *walker_;
    vm::Tlb tlb_;
    MifdIface *mifd_ = nullptr;
    runtime::Process *currentProcess_ = nullptr;

    sim::Counter &faults_;
    sim::Counter &cr3Switches_;
};

} // namespace ccsvm::core

#endif // CCSVM_CORE_MTTOP_CORE_HH
