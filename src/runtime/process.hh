/**
 * @file
 * A guest process: one virtual address space plus a guest heap.
 *
 * The xthreads model is "a process running on a CPU can spawn a set of
 * threads on MTTOP cores"; all its threads — CPU and MTTOP — share
 * this address space (Sec. 3.2.1). The heap allocator is host-side
 * bookkeeping over guest virtual space (like libc's metadata, which
 * the paper does not model); pages are allocated lazily by the kernel
 * on first touch, so MTTOP threads touching fresh allocations exercise
 * the MIFD page-fault relay path.
 */

#ifndef CCSVM_RUNTIME_PROCESS_HH
#define CCSVM_RUNTIME_PROCESS_HH

#include <map>
#include <memory>
#include <string>

#include "base/logging.hh"
#include "base/types.hh"
#include "runtime/functional_mem.hh"
#include "vm/kernel.hh"

namespace ccsvm::runtime
{

/** One guest process. */
class Process
{
  public:
    Process(int pid, vm::Kernel &kernel, FunctionalMem &fmem)
        : pid_(pid), kernel_(&kernel), fmem_(&fmem),
          as_(kernel.createAddressSpace())
    {}

    int pid() const { return pid_; }
    vm::AddressSpace &addressSpace() { return *as_; }
    Addr cr3() const { return as_->cr3(); }
    vm::Kernel &kernel() { return *kernel_; }

    /** Allocate @p size bytes of guest heap (16-byte aligned). */
    vm::VAddr
    gmalloc(Addr size)
    {
        ccsvm_assert(size > 0, "gmalloc(0)");
        size = roundUp(size, 16);
        // First-fit over the free list.
        for (auto it = free_.begin(); it != free_.end(); ++it) {
            if (it->second >= size) {
                const vm::VAddr va = it->first;
                const Addr remaining = it->second - size;
                free_.erase(it);
                if (remaining >= 16)
                    free_[va + size] = remaining;
                allocations_[va] = size;
                return va;
            }
        }
        // Grow the heap by at least one arena chunk.
        const Addr chunk = std::max<Addr>(size, 256 * 1024);
        const vm::VAddr va = as_->reserve(chunk);
        const Addr got = roundUp(chunk, mem::pageBytes);
        if (got > size)
            free_[va + size] = got - size;
        allocations_[va] = size;
        return va;
    }

    /**
     * Allocate whole pages of guest heap (page-aligned base and
     * size). Region-annotated buffers use this so a page-granular
     * coherence attribute covers exactly the buffer and nothing else.
     */
    vm::VAddr
    gmallocPages(Addr size)
    {
        ccsvm_assert(size > 0, "gmallocPages(0)");
        const Addr bytes = roundUp(size, mem::pageBytes);
        const vm::VAddr va = as_->reserve(bytes);
        // Keep the ledger honest: gfree()/allocatedBytes() must work
        // for page allocations exactly as for gmalloc ones.
        allocations_[va] = bytes;
        return va;
    }

    /** Release a gmalloc'd block. */
    void
    gfree(vm::VAddr va)
    {
        auto it = allocations_.find(va);
        ccsvm_assert(it != allocations_.end(),
                     "gfree of unallocated va 0x%llx",
                     (unsigned long long)va);
        free_[va] = it->second;
        allocations_.erase(it);
        coalesce();
    }

    /** Bytes currently allocated (for tests). */
    Addr
    allocatedBytes() const
    {
        Addr total = 0;
        for (const auto &[va, size] : allocations_)
            total += size;
        return total;
    }

    ThreadId allocTid() { return nextTid_++; }

    // --- host backdoor (functional, zero simulated time) ------------

    /** Write host data into guest memory, mapping pages as needed. */
    void
    writeGuest(vm::VAddr va, const void *src, Addr len)
    {
        const auto *p = static_cast<const std::uint8_t *>(src);
        while (len > 0) {
            const Addr in_page =
                std::min<Addr>(len, mem::pageBytes -
                                        (va & mem::pageOffsetMask));
            const Addr pa = ensureMapped(va);
            fmem_->funcWrite(pa, p, static_cast<unsigned>(in_page));
            va += in_page;
            p += in_page;
            len -= in_page;
        }
    }

    /** Read guest memory into a host buffer (unmapped reads as 0). */
    void
    readGuest(vm::VAddr va, void *dst, Addr len)
    {
        auto *p = static_cast<std::uint8_t *>(dst);
        while (len > 0) {
            const Addr in_page =
                std::min<Addr>(len, mem::pageBytes -
                                        (va & mem::pageOffsetMask));
            const vm::WalkResult r = as_->pageTable().walk(va);
            if (r.present) {
                const Addr pa =
                    r.frame | (va & mem::pageOffsetMask);
                fmem_->funcRead(pa, p, static_cast<unsigned>(in_page));
            } else {
                std::memset(p, 0, in_page);
            }
            va += in_page;
            p += in_page;
            len -= in_page;
        }
    }

    /** Typed backdoor store. */
    template <typename T>
    void
    poke(vm::VAddr va, T value)
    {
        writeGuest(va, &value, sizeof(T));
    }

    /** Typed backdoor load. */
    template <typename T>
    T
    peek(vm::VAddr va)
    {
        T v{};
        readGuest(va, &v, sizeof(T));
        return v;
    }

  private:
    Addr
    ensureMapped(vm::VAddr va)
    {
        vm::WalkResult r = as_->pageTable().walk(va);
        if (!r.present) {
            const Addr frame = kernel_->frames().alloc();
            as_->pageTable().map(va, frame, true);
            r = as_->pageTable().walk(va);
        }
        return r.frame | (va & mem::pageOffsetMask);
    }

    void
    coalesce()
    {
        for (auto it = free_.begin(); it != free_.end();) {
            auto next = std::next(it);
            if (next != free_.end() &&
                it->first + it->second == next->first) {
                it->second += next->second;
                free_.erase(next);
            } else {
                ++it;
            }
        }
    }

    int pid_;
    vm::Kernel *kernel_;
    FunctionalMem *fmem_;
    std::unique_ptr<vm::AddressSpace> as_;

    std::map<vm::VAddr, Addr> free_;        ///< free list: va -> size
    std::map<vm::VAddr, Addr> allocations_; ///< live: va -> size
    ThreadId nextTid_ = 0;
};

} // namespace ccsvm::runtime

#endif // CCSVM_RUNTIME_PROCESS_HH
