/**
 * @file
 * Translation lookaside buffer: 64-entry, fully associative, true LRU
 * (Table 2, for both CPU and MTTOP cores). The LRU is constant-time:
 * an intrusive recency list spliced on every hit, with a map from VPN
 * to list node — the translation hot path never scans the whole TLB.
 * A fill, an eviction, an invalidation or a flush reuses list and map
 * nodes instead of allocating.
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

#include <list>
#include <string>

#include "base/recycling_map.hh"
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
        const VAddr vpn = va >> mem::pageShift;
        auto it = map_.find(vpn);
        if (it == map_.end()) {
            ++misses_;
            return false;
        }
        ++hits_;
        // Constant-time recency update: move the node to MRU.
        lru_.splice(lru_.begin(), lru_, it->second);
        out = it->second->entry;
        return true;
    }

    /** Install a translation, evicting true-LRU if full. */
    void
    insert(VAddr va, Addr frame, bool writable,
           coherence::Region region = {})
    {
        const VAddr vpn = va >> mem::pageShift;
        const TlbEntry entry{frame, writable, region};
        if (auto it = map_.find(vpn); it != map_.end()) {
            it->second->entry = entry;
            lru_.splice(lru_.begin(), lru_, it->second);
            return;
        }
        if (map_.size() >= entries_) {
            // Evict the least recently used entry: the list tail.
            map_.erase(lru_.back().vpn);
            free_.splice(free_.begin(), lru_, std::prev(lru_.end()));
        }
        if (free_.empty())
            free_.emplace_front();
        lru_.splice(lru_.begin(), free_, free_.begin());
        lru_.front() = Node{vpn, entry};
        map_.emplace(vpn) = lru_.begin();
    }

    /** Invalidate one translation (x86 invlpg). */
    void
    invalidate(VAddr va)
    {
        auto it = map_.find(va >> mem::pageShift);
        if (it == map_.end())
            return;
        free_.splice(free_.begin(), lru_, it->second);
        map_.erase(it);
    }

    /** Flush everything (MTTOP shootdown policy; CR3 switch). */
    void
    flushAll()
    {
        ++flushes_;
        map_.clear();
        free_.splice(free_.begin(), lru_);
    }

    std::size_t size() const { return map_.size(); }

    std::uint64_t flushes() const { return flushes_.value(); }

  private:
    struct Node
    {
        VAddr vpn = 0;
        TlbEntry entry;
    };

    unsigned entries_;
    /** Recency order, most recent first. */
    std::list<Node> lru_;
    /** Nodes of evicted, invalidated and flushed entries. */
    std::list<Node> free_;
    RecyclingMap<VAddr, std::list<Node>::iterator> map_;

    sim::Counter &hits_;
    sim::Counter &misses_;
    sim::Counter &flushes_;
};

} // namespace ccsvm::vm

#endif // CCSVM_VM_TLB_HH
