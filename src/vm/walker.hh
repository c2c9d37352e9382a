/**
 * @file
 * Hardware page-table walker with a small page-walk cache.
 *
 * On a TLB miss the walker performs the four dependent PTE reads of
 * the x86-style table. Timing: each PTE read hits the page-walk cache
 * (charged at shared-L2 latency) or goes off-chip (charged and counted
 * at the DRAM controller). PTE data itself is read functionally from
 * simulated physical memory; page tables are kernel-managed and are
 * never cached dirty in L1s, so PhysMem is authoritative for them: the
 * walk charges PTE-read timing without routing PTE data through the
 * coherence protocol.
 */

#ifndef CCSVM_VM_WALKER_HH
#define CCSVM_VM_WALKER_HH

#include <functional>
#include <string>
#include <variant>

#include "base/lru_map.hh"
#include "base/types.hh"
#include "mem/dram.hh"
#include "sim/eventq.hh"
#include "sim/parteventq.hh"
#include "sim/stats.hh"
#include "vm/page_table.hh"

namespace ccsvm::vm
{

/** Walker timing parameters. */
struct WalkerConfig
{
    Tick pwcHitLatency = 3450;   ///< page-walk-cache hit ~ L2 latency
    unsigned pwcEntries = 16;    ///< cached PTE lines
    Tick sharedHitLatency = 3450; ///< PTE line resident in shared L2
};

/**
 * A bounded true-LRU set of PTE lines, on the TLB's recency list
 * (LruMap): a lookup hit and a re-insert make the line the most
 * recent. Each walker keeps one as its page-walk cache. One more,
 * shared by every walker, models the PTE lines resident in the shared
 * cache hierarchy: after any core's walker fetches a PTE line, other
 * cores find it on-chip instead of re-reading DRAM (in the paper's
 * chip the walkers' fills land in the inclusive shared L2).
 */
class PteLineFilter
{
  public:
    explicit PteLineFilter(unsigned entries = 512) : lines_(entries) {}

    bool lookup(Addr line) { return lines_.find(line) != nullptr; }

    void insert(Addr line) { lines_.insert(line, {}); }

  private:
    LruMap<Addr, std::monostate> lines_;
};

/** Per-core hardware page table walker. */
class Walker
{
  public:
    Walker(sim::EventQueue &eq, sim::StatRegistry &stats,
           const std::string &name, const WalkerConfig &cfg,
           mem::DramCtrl &dram, PteLineFilter *shared = nullptr)
        : eq_(&eq), cfg_(cfg), dram_(&dram), shared_(shared),
          pwc_(cfg.pwcEntries),
          walks_(stats.counter(name + ".walks", "page walks started")),
          pwcHits_(stats.counter(name + ".pwcHits",
                                 "PTE reads served by walk cache")),
          sharedHits_(stats.counter(name + ".sharedHits",
                                    "PTE reads served by the shared "
                                    "cache")),
          pwcMisses_(stats.counter(name + ".pwcMisses",
                                   "PTE reads fetched off-chip")),
          trc_(stats.tracer()), lane_(stats.tracer().lane(name))
    {}

    /**
     * Perform a timed walk of @p va in @p pt.
     *
     * The walkers share one PteLineFilter and all sit (with the page
     * tables' authoritative PhysMem image) in the system partition
     * under a PartEngine, so a walk requested from a core partition
     * runs there through sim::callIn and its result returns through
     * sim::replyFrom: the shared LRU state is only ever touched in
     * deterministic partition-local order.
     *
     * @param on_done receives the functional walk result, in the
     *        caller's partition, once the dependent PTE reads have
     *        been charged.
     */
    void
    walk(const PageTable &pt, VAddr va,
         std::function<void(WalkResult)> on_done)
    {
        auto reply = sim::replyFrom(*eq_, std::move(on_done));
        sim::callIn(*eq_, [this, &pt, va,
                           reply = std::move(reply)]() mutable {
            ++walks_;
            if (trc_.enabled(sim::traceVm)) {
                // Wrap the completion so the span closes when the
                // last PTE access resolves, still in this walker's
                // partition.
                const Tick t0 = eq_->now();
                reply = [this, t0, va, cb = std::move(reply)](
                            WalkResult res) mutable {
                    trc_.complete(sim::traceVm, lane_, "walk", t0,
                                  eq_->now(), va);
                    cb(res);
                };
            }
            stepWalk(pt.walk(va), 0, std::move(reply));
        });
    }

  private:
    void
    stepWalk(WalkResult r, unsigned lvl,
             std::function<void(WalkResult)> on_done)
    {
        if (lvl >= r.levelsTouched) {
            on_done(r);
            return;
        }
        const Addr line = mem::blockAlign(r.pteAddrs[lvl]);
        if (pwc_.lookup(line)) {
            ++pwcHits_;
            eq_->scheduleIn(cfg_.pwcHitLatency,
                            [this, r, lvl,
                             on_done = std::move(on_done)]() mutable {
                                stepWalk(r, lvl + 1,
                                         std::move(on_done));
                            });
        } else if (shared_ && shared_->lookup(line)) {
            // Another core's walk left this PTE line in the shared
            // cache hierarchy: on-chip hit.
            ++sharedHits_;
            pwc_.insert(line);
            eq_->scheduleIn(cfg_.sharedHitLatency,
                            [this, r, lvl,
                             on_done = std::move(on_done)]() mutable {
                                stepWalk(r, lvl + 1,
                                         std::move(on_done));
                            });
        } else {
            ++pwcMisses_;
            dram_->access(false, mem::blockBytes,
                          [this, r, lvl, line,
                           on_done = std::move(on_done)]() mutable {
                              pwc_.insert(line);
                              if (shared_)
                                  shared_->insert(line);
                              stepWalk(r, lvl + 1,
                                       std::move(on_done));
                          });
        }
    }

    sim::EventQueue *eq_;
    WalkerConfig cfg_;
    mem::DramCtrl *dram_;
    PteLineFilter *shared_;
    PteLineFilter pwc_;

    sim::Counter &walks_;
    sim::Counter &pwcHits_;
    sim::Counter &sharedHits_;
    sim::Counter &pwcMisses_;
    sim::Tracer &trc_;
    int lane_;
};

} // namespace ccsvm::vm

#endif // CCSVM_VM_WALKER_HH
