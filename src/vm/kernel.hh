/**
 * @file
 * Minimal operating-system model.
 *
 * The paper runs "unmodified Linux 2.6 with the addition of our simple
 * MIFD driver (~30 lines of C code)". We model the slice of the OS the
 * evaluation actually exercises: physical frame allocation, per-process
 * address spaces with lazy page allocation, the page-fault service path
 * (with a kernel-entry cost and a single kernel lock serializing
 * faults), virtual-region management for the guest heap, and
 * TLB shootdown (CPU IPIs; MTTOP TLBs are flushed wholesale via the
 * MIFD, Sec. 3.2.1).
 */

#ifndef CCSVM_VM_KERNEL_HH
#define CCSVM_VM_KERNEL_HH

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "base/intmath.hh"
#include "base/types.hh"
#include "mem/phys_mem.hh"
#include "sim/eventq.hh"
#include "sim/parteventq.hh"
#include "sim/stats.hh"
#include "vm/page_table.hh"
#include "vm/tlb.hh"

namespace ccsvm::vm
{

/** Kernel cost model. */
struct KernelConfig
{
    /** Trap + handler + return for a minor (lazy-alloc) fault. */
    Tick pageFaultLatency = 1500 * tickNs;
    /** Cost of one shootdown IPI round to the CPU cores. */
    Tick shootdownLatency = 4000 * tickNs;
};

/** Virtual address space layout constants for guest processes. */
struct AddressLayout
{
    static constexpr VAddr heapBase = 0x0000'2000'0000ull;
    static constexpr VAddr heapLimit = 0x0000'6000'0000ull;
};

class Kernel;

/** One process's virtual address space. */
class AddressSpace
{
  public:
    AddressSpace(mem::PhysMem &phys, FrameAllocator &frames)
        : pageTable_(phys, frames)
    {}

    PageTable &pageTable() { return pageTable_; }
    const PageTable &pageTable() const { return pageTable_; }

    /** CR3 for this process. */
    Addr cr3() const { return pageTable_.root(); }

    /** Reserve a virtual region (no frames yet: lazy allocation). */
    VAddr
    reserve(Addr bytes)
    {
        const Addr aligned = roundUp(bytes, mem::pageBytes);
        ccsvm_assert(heapBrk_ + aligned <= AddressLayout::heapLimit,
                     "guest heap exhausted");
        const VAddr va = heapBrk_;
        heapBrk_ += aligned;
        return va;
    }

    // --- region-based coherence (attrs ride in the TLB) -------------

    /** Declare a page-aligned region with a coherence attribute. */
    void addRegion(MemRegion r) { regions_.add(std::move(r)); }

    /** The region covering @p va, or nullptr (default coherent). */
    const MemRegion *
    regionFor(VAddr va) const
    {
        return regions_.find(va);
    }

    const RegionMap &regions() const { return regions_; }

  private:
    PageTable pageTable_;
    RegionMap regions_;
    VAddr heapBrk_ = AddressLayout::heapBase;
};

/** The OS kernel model: one instance per machine. */
class Kernel
{
  public:
    Kernel(sim::EventQueue &eq, sim::StatRegistry &stats,
           mem::PhysMem &phys, const KernelConfig &cfg,
           Addr frame_pool_base, Addr frame_pool_size)
        : eq_(&eq), cfg_(cfg), phys_(&phys),
          frames_(frame_pool_base, frame_pool_size),
          faults_(stats.counter("kernel.pageFaults",
                                "page faults serviced")),
          shootdowns_(stats.counter("kernel.shootdowns",
                                    "TLB shootdowns issued")),
          trc_(stats.tracer()), lane_(stats.tracer().lane("kernel"))
    {}

    FrameAllocator &frames() { return frames_; }

    std::unique_ptr<AddressSpace>
    createAddressSpace()
    {
        return std::make_unique<AddressSpace>(*phys_, frames_);
    }

    /**
     * Register a CPU TLB (receives precise invalidations). @p owner
     * is the partition queue of the core holding the TLB, so
     * shootdowns invalidate it in its own partition; the default is
     * the kernel's own queue (standalone tests).
     */
    void
    registerCpuTlb(Tlb *tlb, sim::EventQueue *owner = nullptr)
    {
        cpuTlbs_.push_back(OwnedTlb{tlb, owner ? owner : eq_});
    }

    /** Register an MTTOP TLB (flushed wholesale on shootdown). */
    void
    registerMttopTlb(Tlb *tlb, sim::EventQueue *owner = nullptr)
    {
        mttopTlbs_.push_back(OwnedTlb{tlb, owner ? owner : eq_});
    }

    /**
     * Service a page fault at @p va: allocate a zeroed frame and map
     * it. Faults are serialized by the kernel lock; @p on_done runs
     * once the handler completes — in the caller's own partition.
     *
     * The fault may be raised by a CPU core directly or relayed from
     * an MTTOP core through the MIFD interrupt (the MIFD adds its own
     * relay latency before calling this). Under a PartEngine the
     * kernel's state (fault queue, frame allocator, page tables)
     * lives in its own partition: faulters from other partitions
     * enter it through sim::callIn, keeping the coalescing map and
     * allocator in deterministic partition-local order.
     */
    void
    handlePageFault(AddressSpace &as, VAddr va,
                    std::function<void()> on_done)
    {
        auto reply = sim::replyFrom(*eq_, std::move(on_done));
        sim::callIn(*eq_, [this, &as, va,
                           reply = std::move(reply)]() mutable {
            // Coalesce concurrent faulters on the same page: only the
            // first pays the full handler; the rest block on the
            // page-table lock and retry together once the mapping
            // exists — without this, a fresh page touched by hundreds
            // of MTTOP threads at once serializes into a fault storm
            // no real OS exhibits.
            const auto key = std::make_pair(&as, va >> mem::pageShift);
            auto it = waiting_.find(key);
            if (it != waiting_.end()) {
                it->second.push_back(std::move(reply));
                return;
            }
            waiting_[key].push_back(std::move(reply));
            faultQueue_.push_back(Fault{&as, va});
            if (!faultInService_)
                serviceNextFault();
        });
    }

    /**
     * Unmap @p va's page and run a TLB shootdown: precise invalidation
     * at CPU TLBs, full flush of all MTTOP TLBs (the paper's
     * conservative policy). Frees the frame. Routed like
     * handlePageFault; the IPI invalidations run in each TLB's own
     * partition, well inside the shootdown-latency window after which
     * @p on_done fires.
     */
    void
    unmapAndShootdown(AddressSpace &as, VAddr va,
                      std::function<void()> on_done)
    {
        auto reply = sim::replyFrom(*eq_, std::move(on_done));
        sim::callIn(*eq_, [this, &as, va,
                           reply = std::move(reply)]() mutable {
            ++shootdowns_;
            if (trc_.enabled(sim::traceVm))
                trc_.complete(sim::traceVm, lane_, "shootdown",
                              eq_->now(),
                              eq_->now() + cfg_.shootdownLatency, va);
            WalkResult r = as.pageTable().walk(va);
            if (r.present) {
                as.pageTable().unmap(va);
                frames_.free(r.frame);
            }
            for (const OwnedTlb &t : cpuTlbs_)
                sim::callIn(*t.owner,
                            [tlb = t.tlb, va] { tlb->invalidate(va); });
            for (const OwnedTlb &t : mttopTlbs_)
                sim::callIn(*t.owner,
                            [tlb = t.tlb] { tlb->flushAll(); });
            eq_->scheduleIn(cfg_.shootdownLatency, std::move(reply));
        });
    }

    std::uint64_t pageFaults() const { return faults_.value(); }

  private:
    struct Fault
    {
        AddressSpace *as;
        VAddr va;
    };

    struct OwnedTlb
    {
        Tlb *tlb;
        sim::EventQueue *owner; ///< partition of the holding core
    };

    void
    serviceNextFault()
    {
        if (faultQueue_.empty()) {
            faultInService_ = false;
            return;
        }
        faultInService_ = true;
        Fault f = faultQueue_.front();
        faultQueue_.pop_front();

        const Tick t0 = eq_->now();
        eq_->scheduleIn(cfg_.pageFaultLatency, [this, f, t0] {
            if (trc_.enabled(sim::traceKernel))
                trc_.complete(sim::traceKernel, lane_, "pageFault",
                              t0, eq_->now(), f.va);
            // Lazy allocation: a fresh zeroed frame, writable.
            WalkResult r = f.as->pageTable().walk(f.va);
            if (!r.present) {
                ++faults_;
                const Addr frame = frames_.alloc();
                f.as->pageTable().map(f.va, frame, true);
            }
            // Wake every thread that faulted on this page.
            const VAddr page = f.va >> mem::pageShift;
            auto it = waiting_.find(std::make_pair(f.as, page));
            ccsvm_assert(it != waiting_.end(),
                         "fault service lost its waiters");
            auto callbacks = std::move(it->second);
            waiting_.erase(it);
            for (auto &cb : callbacks)
                cb();
            serviceNextFault();
        });
    }

    sim::EventQueue *eq_;
    KernelConfig cfg_;
    mem::PhysMem *phys_;
    FrameAllocator frames_;
    std::vector<OwnedTlb> cpuTlbs_;
    std::vector<OwnedTlb> mttopTlbs_;

    std::deque<Fault> faultQueue_;
    /** Faulters blocked per (address space, page). */
    std::map<std::pair<AddressSpace *, VAddr>,
             std::vector<std::function<void()>>>
        waiting_;
    bool faultInService_ = false;

    sim::Counter &faults_;
    sim::Counter &shootdowns_;
    sim::Tracer &trc_;
    int lane_;
};

} // namespace ccsvm::vm

#endif // CCSVM_VM_KERNEL_HH
