/**
 * @file
 * x86-style 4-level page tables, stored in simulated physical memory.
 *
 * The paper's HMC "faithfully adheres to x86-specific architectural
 * decisions, including the use of a hardware TLB miss handler (page
 * table walker)" and ships the CR3 root to MTTOP cores in the task
 * descriptor (Sec. 3.2.1). We implement a real radix table: PTEs are
 * 8-byte entries in 4 KiB frames of PhysMem, so a hardware walk is
 * four dependent physical reads, exactly as on x86-64.
 */

#ifndef CCSVM_VM_PAGE_TABLE_HH
#define CCSVM_VM_PAGE_TABLE_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "base/types.hh"
#include "coherence/types.hh"
#include "mem/phys_mem.hh"

namespace ccsvm::vm
{

/** Guest virtual address. */
using VAddr = std::uint64_t;

/**
 * One virtual-memory region with a coherence attribute (paper Sec. 5
 * discussion: whether hardware coherence pays off depends on the
 * access pattern, which varies per data region). Regions are
 * page-granular because the attribute rides in the TLB alongside the
 * translation — everything inside one page shares a treatment.
 */
struct MemRegion
{
    std::string name;
    VAddr base = 0;
    Addr size = 0;
    coherence::RegionAttr attr = coherence::RegionAttr::Coherent;
    /** Region protocol when attr == ProtocolOverride. */
    coherence::Protocol protocol{};

    bool
    contains(VAddr va) const
    {
        return va >= base && va - base < size;
    }
};

/**
 * The per-address-space region table: non-overlapping, page-aligned
 * regions keyed by base address. Addresses outside every region get
 * the default treatment (Coherent under the cluster protocol).
 */
class RegionMap
{
  public:
    void
    add(MemRegion r)
    {
        ccsvm_assert(r.size > 0 &&
                         r.base % mem::pageBytes == 0 &&
                         r.size % mem::pageBytes == 0,
                     "region '%s' not page-aligned: base=0x%llx "
                     "size=0x%llx",
                     r.name.c_str(), (unsigned long long)r.base,
                     (unsigned long long)r.size);
        // Reject overlap: the neighbor below must end at or before
        // our base, and the neighbor above must start at or after our
        // end.
        auto next = map_.lower_bound(r.base);
        if (next != map_.begin()) {
            auto prev = std::prev(next);
            ccsvm_assert(prev->second.base + prev->second.size <=
                             r.base,
                         "region '%s' overlaps '%s'", r.name.c_str(),
                         prev->second.name.c_str());
        }
        ccsvm_assert(next == map_.end() ||
                         r.base + r.size <= next->second.base,
                     "region '%s' overlaps '%s'", r.name.c_str(),
                     next->second.name.c_str());
        map_.emplace(r.base, std::move(r));
    }

    /** The region containing @p va, or nullptr (default treatment). */
    const MemRegion *
    find(VAddr va) const
    {
        auto it = map_.upper_bound(va);
        if (it == map_.begin())
            return nullptr;
        --it;
        return it->second.contains(va) ? &it->second : nullptr;
    }

    /** Any declared region intersects [base, base+size)? Lets
     * callers (e.g. workload default annotations) yield to an
     * existing declaration instead of tripping add()'s overlap
     * assert. */
    bool
    overlaps(VAddr base, Addr size) const
    {
        if (size == 0)
            return false;
        auto it = map_.upper_bound(base + size - 1);
        if (it == map_.begin())
            return false;
        --it;
        return it->second.base + it->second.size > base;
    }

    std::size_t size() const { return map_.size(); }
    const std::map<VAddr, MemRegion> &regions() const { return map_; }

  private:
    std::map<VAddr, MemRegion> map_;
};

/** PTE flag bits (subset of x86). */
enum PteFlags : std::uint64_t
{
    pteValid = 1ull << 0,
    pteWritable = 1ull << 1,
};

inline constexpr unsigned pteSize = 8;
inline constexpr unsigned levels = 4;
inline constexpr unsigned bitsPerLevel = 9;
inline constexpr std::uint64_t levelMask = (1ull << bitsPerLevel) - 1;

/** Physical frame allocator: hands out 4 KiB frames of PhysMem. */
class FrameAllocator
{
  public:
    /**
     * @param base  first allocatable physical address (page aligned)
     * @param size  bytes available
     */
    FrameAllocator(Addr base, Addr size)
        : next_(base), end_(base + size)
    {
        ccsvm_assert(base % mem::pageBytes == 0,
                     "frame pool must be page aligned");
    }

    /** Allocate one zeroed frame; returns its physical address. */
    Addr
    alloc()
    {
        if (!freeList_.empty()) {
            Addr f = freeList_.back();
            freeList_.pop_back();
            return f;
        }
        ccsvm_assert(next_ < end_, "out of physical frames");
        Addr f = next_;
        next_ += mem::pageBytes;
        return f;
    }

    void free(Addr frame) { freeList_.push_back(frame); }

  private:
    Addr next_;
    Addr end_;
    std::vector<Addr> freeList_;
};

/** Result of a functional page-table walk. */
struct WalkResult
{
    bool present = false;
    bool writable = false;
    Addr frame = 0;              ///< physical frame base
    unsigned levelsTouched = 0;  ///< dependent PTE reads performed
    /** Physical addresses of the PTEs read (for timing/PWC). */
    std::array<Addr, levels> pteAddrs{};
};

/**
 * One process's page table. The kernel model builds and mutates it;
 * hardware walkers only read it.
 */
class PageTable
{
  public:
    PageTable(mem::PhysMem &phys, FrameAllocator &frames)
        : phys_(&phys), frames_(&frames), root_(frames.alloc())
    {}

    /** The CR3 value: physical address of the root table. */
    Addr root() const { return root_; }

    /** Index of @p va at table level @p lvl (0 = root). */
    static unsigned
    index(VAddr va, unsigned lvl)
    {
        const unsigned shift =
            mem::pageShift + bitsPerLevel * (levels - 1 - lvl);
        return static_cast<unsigned>((va >> shift) & levelMask);
    }

    /**
     * Map the page containing @p va to physical frame @p frame,
     * creating intermediate tables as needed.
     */
    void
    map(VAddr va, Addr frame, bool writable)
    {
        Addr table = root_;
        for (unsigned lvl = 0; lvl < levels - 1; ++lvl) {
            const Addr pte_addr = table + index(va, lvl) * pteSize;
            std::uint64_t pte = phys_->readScalar(pte_addr, pteSize);
            if (!(pte & pteValid)) {
                const Addr next = frames_->alloc();
                pte = next | pteValid | pteWritable;
                phys_->writeScalar(pte_addr, pte, pteSize);
            }
            table = pte & ~mem::pageOffsetMask;
        }
        const Addr leaf_addr =
            table + index(va, levels - 1) * pteSize;
        std::uint64_t leaf = frame | pteValid;
        if (writable)
            leaf |= pteWritable;
        phys_->writeScalar(leaf_addr, leaf, pteSize);
    }

    /**
     * Remove the translation for @p va's page.
     * @return true if a mapping existed.
     */
    bool
    unmap(VAddr va)
    {
        Addr table = root_;
        for (unsigned lvl = 0; lvl < levels - 1; ++lvl) {
            const Addr pte_addr = table + index(va, lvl) * pteSize;
            const std::uint64_t pte =
                phys_->readScalar(pte_addr, pteSize);
            if (!(pte & pteValid))
                return false;
            table = pte & ~mem::pageOffsetMask;
        }
        const Addr leaf_addr =
            table + index(va, levels - 1) * pteSize;
        const std::uint64_t leaf =
            phys_->readScalar(leaf_addr, pteSize);
        if (!(leaf & pteValid))
            return false;
        phys_->writeScalar(leaf_addr, 0, pteSize);
        return true;
    }

    /** Functional walk (no timing). */
    WalkResult
    walk(VAddr va) const
    {
        WalkResult r;
        Addr table = root_;
        for (unsigned lvl = 0; lvl < levels; ++lvl) {
            const Addr pte_addr = table + index(va, lvl) * pteSize;
            r.pteAddrs[lvl] = pte_addr;
            r.levelsTouched = lvl + 1;
            const std::uint64_t pte =
                phys_->readScalar(pte_addr, pteSize);
            if (!(pte & pteValid))
                return r;
            if (lvl == levels - 1) {
                r.present = true;
                r.writable = (pte & pteWritable) != 0;
                r.frame = pte & ~mem::pageOffsetMask &
                          ~(pteValid | pteWritable);
                return r;
            }
            table = pte & ~mem::pageOffsetMask;
        }
        return r;
    }

    /** Translate a full virtual address (functional); present must
     * hold. */
    Addr
    translate(VAddr va) const
    {
        WalkResult r = walk(va);
        ccsvm_assert(r.present, "translate of unmapped va 0x%llx",
                     (unsigned long long)va);
        return r.frame | (va & mem::pageOffsetMask);
    }

  private:
    mem::PhysMem *phys_;
    FrameAllocator *frames_;
    Addr root_;
};

} // namespace ccsvm::vm

#endif // CCSVM_VM_PAGE_TABLE_HH
