#include "core/mttop_core.hh"

#include "core/translate.hh"

namespace ccsvm::core
{

MttopCore::MttopCore(sim::EventQueue &eq, sim::StatRegistry &stats,
                     const std::string &name,
                     const MttopCoreConfig &cfg,
                     coherence::L1Controller &l1, vm::Walker &walker,
                     vm::Kernel &kernel)
    : ThroughputCore(eq, cfg.clockPeriod, cfg.issueWidth,
                     cfg.numContexts,
                     stats.counter(name + ".instructions",
                                   "guest instructions retired"),
                     stats.counter(name + ".memOps",
                                   "loads/stores/atomics issued"),
                     stats.counter(name + ".threads",
                                   "MTTOP threads executed")),
      l1_(&l1), walker_(&walker),
      tlb_(stats, name + ".tlb", cfg.tlbEntries),
      faults_(stats.counter(name + ".pageFaults",
                            "page faults relayed via MIFD")),
      cr3Switches_(stats.counter(name + ".cr3Switches",
                                 "address-space switches (TLB flush)"))
{
    kernel.registerMttopTlb(&tlb_, &eq);
}

void
MttopCore::connectMifd(MifdIface *mifd, unsigned port)
{
    mifd_ = mifd;
    setContextsFreedHandler(
        [mifd, port] { mifd->notifyContextsFreed(port); });
}

void
MttopCore::assignChunk(TaskChunk chunk)
{
    // Setting CR3 for a different process flushes the per-core TLB.
    if (currentProcess_ != chunk.desc->process) {
        if (currentProcess_ != nullptr) {
            ++cr3Switches_;
            tlb_.flushAll();
        }
        currentProcess_ = chunk.desc->process;
    }
    assign(std::move(chunk));
}

void
MttopCore::access(ThreadContext &tc)
{
    translateAndIssue(
        tlb_, *walker_, tc,
        [this, &tc](Addr paddr, const vm::TlbEntry &te) {
            issueToL1(*l1_, tc, paddr, te);
        },
        // MTTOP cores do not run the OS: raise the fault to a CPU
        // core through the MIFD (paper Sec. 3.2.1).
        [this, &tc](runtime::Process &proc, vm::VAddr va) {
            ++faults_;
            ccsvm_assert(mifd_, "MTTOP page fault without a MIFD");
            mifd_->relayPageFault(proc, va,
                                  [this, &tc] { access(tc); });
        });
}

} // namespace ccsvm::core
