/**
 * @file
 * MTTOP InterFace Device (MIFD).
 *
 * "The MIFD's purpose is to abstract away the details of the MTTOP
 * (including how many MTTOP cores are on the chip)... When a CPU core
 * launches a task on the MTTOP, it communicates this task to the MIFD
 * via a write syscall, and the MIFD finds a set of available MTTOP
 * thread contexts that can run the assigned task. Task assignment is
 * done in a simple round-robin manner until there are no MTTOP thread
 * contexts remaining... it will write an error register if there are
 * not enough MTTOP thread contexts available" (Sec. 3.1). The MIFD
 * also relays MTTOP page faults to a CPU core as an interrupt
 * carrying the fault cause and CR3 (Sec. 3.2.1).
 */

#ifndef CCSVM_DEV_MIFD_HH
#define CCSVM_DEV_MIFD_HH

#include <deque>
#include <memory>
#include <vector>

#include "base/types.hh"
#include "core/mttop_core.hh"
#include "noc/network.hh"
#include "sim/eventq.hh"
#include "sim/parteventq.hh"
#include "sim/stats.hh"
#include "vm/kernel.hh"

namespace ccsvm::dev
{

/** MIFD timing parameters. */
struct MifdConfig
{
    /** Device-side handling of an incoming task descriptor. */
    Tick taskAcceptLatency = 120 * tickNs;
    /** Per-chunk scheduling decision + descriptor write. */
    Tick chunkDispatchLatency = 40 * tickNs;
    /** Interrupt delivery for an MTTOP page fault to a CPU core. */
    Tick faultRelayLatency = 600 * tickNs;
    /** Threads per dispatch chunk: the SIMD width (warp/wavefront). */
    unsigned simdWidth = 8;
};

/** Wiring record for one MTTOP core. */
struct MttopPort
{
    core::MttopCore *core = nullptr;
    noc::NodeId node = -1;
};

/** The MTTOP interface device. */
class Mifd : public core::MifdIface
{
  public:
    Mifd(sim::EventQueue &eq, sim::StatRegistry &stats,
         const MifdConfig &cfg, vm::Kernel &kernel, noc::Network &net,
         noc::NodeId my_node);

    /** Wire up the MTTOP cores (dispatch targets); each must have at
     * least simdWidth free thread contexts. */
    void connectMttops(std::vector<MttopPort> cores);

    /** Error register: set when a requireAll task could not have all
     * of its threads resident simultaneously. */
    std::uint64_t errorRegister() const { return errorReg_; }
    void clearErrorRegister() { errorReg_ = 0; }

    // MifdIface. All three entry points may be called from another
    // partition (CPU syscall, MTTOP fault/completion); each enters
    // the device's own partition through sim::callIn, so the pending
    // queue, the context mirror, and deviceFree_ are touched only
    // there.
    void submitTask(core::TaskDescriptor desc) override;
    void relayPageFault(runtime::Process &proc, vm::VAddr va,
                        std::function<void()> retry) override;
    void notifyContextsFreed(unsigned port) override;

  private:
    void acceptTask(core::TaskDescriptor desc);
    void dispatch();
    unsigned totalFreeContexts() const;

    sim::EventQueue *eq_;
    MifdConfig cfg_;
    vm::Kernel *kernel_;
    noc::Network *net_;
    noc::NodeId node_;
    std::vector<MttopPort> mttops_;

    std::deque<core::TaskChunk> pending_;
    /** Device-side mirror of free contexts per core: decremented when
     * a chunk is dispatched, incremented when a core reports a freed
     * context. Replaces live freeContexts() polls (which would race
     * across partitions) and subsumes the old in-flight reservation:
     * the mirror already discounts dispatched-but-unassigned chunks. */
    std::vector<unsigned> ctxFree_;
    std::size_t rrNext_ = 0;
    Tick deviceFree_ = 0;
    std::uint64_t errorReg_ = 0;
    bool dispatchScheduled_ = false;

    sim::Counter &tasks_;
    sim::Counter &chunks_;
    sim::Counter &faultRelays_;
    sim::Counter &errors_;

    sim::Tracer &trc_;
    int lane_;
};

} // namespace ccsvm::dev

#endif // CCSVM_DEV_MIFD_HH
