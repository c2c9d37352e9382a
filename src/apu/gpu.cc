#include "apu/gpu.hh"

#include <algorithm>
#include <cmath>

namespace ccsvm::apu
{

GpuSimdUnit::GpuSimdUnit(sim::EventQueue &eq, sim::StatRegistry &stats,
                         const std::string &name,
                         const GpuSimdUnitConfig &cfg,
                         mem::DramCtrl &dram, mem::PhysMem &phys)
    : ThroughputCore(eq, cfg.clockPeriod, cfg.lanes, cfg.numContexts,
                     stats.counter(name + ".instructions",
                                   "work-item operations retired"),
                     stats.counter(name + ".memOps",
                                   "memory operations"),
                     stats.counter(name + ".threads",
                                   "work-items executed")),
      cfg_(cfg), dram_(&dram), phys_(&phys),
      readCache_(cfg.cacheBytes, cfg.cacheAssoc),
      vliwInstrs_(stats.counter(name + ".vliwInstrs",
                                "VLIW instructions issued")),
      cacheHits_(stats.counter(name + ".cacheHits",
                               "read-cache hits")),
      coalesced_(stats.counter(name + ".coalesced",
                               "read misses merged into an "
                               "outstanding fetch"))
{}

void
GpuSimdUnit::flushCache()
{
    readCache_.forEach(
        [this](TagLine &line) { readCache_.invalidate(&line); });
    wcBlock_ = invalidAddr;
}

Cycles
GpuSimdUnit::computeCycles(std::uint64_t n)
{
    // VLIW packing: vliwUtilization scalar ops per instruction.
    const auto vliw = static_cast<std::uint64_t>(std::ceil(
        static_cast<double>(n) / cfg_.vliwUtilization));
    vliwInstrs_ += vliw;
    return std::max<Cycles>(vliw, 1);
}

void
GpuSimdUnit::access(core::ThreadContext &tc)
{
    if (tc.pendingOp().mem.writes())
        doWrite(tc);
    else
        doLoad(tc);
}

void
GpuSimdUnit::doLoad(core::ThreadContext &tc)
{
    core::GuestOp &op = tc.pendingOp();
    const Addr pa = op.va; // GPU addresses are physical (pinned)
    const Addr block = mem::blockAlign(pa);

    if (TagLine *line = readCache_.lookup(block)) {
        ++cacheHits_;
        readCache_.touch(line);
        eq_->scheduleIn(cfg_.cacheHitLatency, [this, &tc, pa] {
            tc.completeOp(tc.pendingOp().mem.applyTo(*phys_, pa));
        });
        return;
    }

    // Coalesce into an outstanding fetch of the same block.
    if (auto it = pendingReads_.find(block);
        it != pendingReads_.end()) {
        ++coalesced_;
        it->second.push_back(&tc);
        return;
    }

    pendingReads_[block] = {&tc};
    dram_->access(false, mem::blockBytes, [this, block] {
        // Install the tag, evicting LRU if needed.
        if (!readCache_.lookup(block)) {
            if (!readCache_.allocate(block)) {
                TagLine *victim = readCache_.findVictim(
                    block, [](const TagLine &) { return true; });
                readCache_.invalidate(victim);
                readCache_.allocate(block);
            }
        }
        auto waiters = std::move(pendingReads_[block]);
        pendingReads_.erase(block);
        for (core::ThreadContext *w : waiters) {
            core::GuestOp &o = w->pendingOp();
            w->completeOp(o.mem.applyTo(*phys_, o.va));
        }
    });
}

void
GpuSimdUnit::doWrite(core::ThreadContext &tc)
{
    const core::GuestOp &op = tc.pendingOp();
    const Addr pa = op.va;
    // The functional access happens at issue: a store enters the
    // write-combining buffer, and an atomic executes at the memory
    // controller, which serializes it.
    const std::uint64_t v = op.mem.applyTo(*phys_, pa);
    if (op.mem.kind == coherence::ScalarOp::Kind::Write) {
        const Addr block = mem::blockAlign(pa);
        if (block != wcBlock_) {
            // New block: the previous combine buffer drains off-chip.
            wcBlock_ = block;
            dram_->access(true, mem::blockBytes, [] {});
        }
        eq_->schedule(clock_.clockEdge(1), [&tc] { tc.completeOp(0); });
        return;
    }
    // GPU atomics execute at the memory controller: read + modify +
    // write, two off-chip transactions, no caching. The thread only
    // resumes after both transactions complete.
    dram_->access(false, mem::blockBytes, [this, &tc, v] {
        dram_->access(true, mem::blockBytes,
                      [&tc, v] { tc.completeOp(v); });
    });
}

} // namespace ccsvm::apu
