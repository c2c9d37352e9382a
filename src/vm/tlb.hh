/**
 * @file
 * Translation lookaside buffer: 64-entry, fully associative, true LRU
 * (Table 2, for both CPU and MTTOP cores). The entries live in an
 * LruMap from VPN to translation: a constant-time recency list
 * spliced on every hit, so the translation hot path never scans the
 * whole TLB, and a fill, an eviction, an invalidation or a flush
 * reuses list and map nodes instead of allocating.
 *
 * Each entry carries the page's region alongside the translation
 * (region-based coherence: the core stamps every memory request with
 * it so the L1 can bypass or override the cluster protocol per
 * region).
 *
 * TLB coherence follows the paper's conservative choice (Sec. 3.2.1):
 * CPU-initiated shootdowns flush MTTOP TLBs entirely; CPU TLBs
 * invalidate the affected translation.
 */

#ifndef CCSVM_VM_TLB_HH
#define CCSVM_VM_TLB_HH

#include <string>

#include "base/lru_map.hh"
#include "base/types.hh"
#include "coherence/types.hh"
#include "mem/phys_mem.hh"
#include "sim/stats.hh"
#include "vm/page_table.hh"

namespace ccsvm::vm
{

/** One TLB translation as handed to the core. */
struct TlbEntry
{
    Addr frame = 0;
    bool writable = false;
    coherence::Region region{};
};

/** One core-private TLB. */
class Tlb
{
  public:
    Tlb(sim::StatRegistry &stats, const std::string &name,
        unsigned entries = 64)
        : entries_(entries),
          hits_(stats.counter(name + ".hits", "TLB hits")),
          misses_(stats.counter(name + ".misses", "TLB misses")),
          flushes_(stats.counter(name + ".flushes",
                                 "whole-TLB flushes"))
    {}

    /**
     * Look up the translation for @p va.
     * @return true and fill @p out on a hit.
     */
    bool
    lookup(VAddr va, TlbEntry &out)
    {
        const TlbEntry *e = entries_.find(va >> mem::pageShift);
        if (!e) {
            ++misses_;
            return false;
        }
        ++hits_;
        out = *e;
        return true;
    }

    /** Install a translation, evicting true-LRU if full. */
    void
    insert(VAddr va, Addr frame, bool writable,
           coherence::Region region = {})
    {
        entries_.insert(va >> mem::pageShift,
                        TlbEntry{frame, writable, region});
    }

    /** Invalidate one translation (x86 invlpg). */
    void invalidate(VAddr va) { entries_.erase(va >> mem::pageShift); }

    /** Flush everything (MTTOP shootdown policy; CR3 switch). */
    void
    flushAll()
    {
        ++flushes_;
        entries_.clear();
    }

    std::size_t size() const { return entries_.size(); }

    std::uint64_t flushes() const { return flushes_.value(); }

  private:
    /** Translations by VPN. */
    LruMap<VAddr, TlbEntry> entries_;

    sim::Counter &hits_;
    sim::Counter &misses_;
    sim::Counter &flushes_;
};

} // namespace ccsvm::vm

#endif // CCSVM_VM_TLB_HH
