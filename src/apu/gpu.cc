#include "apu/gpu.hh"

#include <cmath>

namespace ccsvm::apu
{

GpuSimdUnit::GpuSimdUnit(sim::EventQueue &eq, sim::StatRegistry &stats,
                         const std::string &name,
                         const GpuSimdUnitConfig &cfg,
                         mem::DramCtrl &dram, mem::PhysMem &phys)
    : eq_(&eq), cfg_(cfg), clock_(eq, cfg.clockPeriod), dram_(&dram),
      phys_(&phys), freeSlots_(cfg.numContexts),
      readCache_(cfg.cacheBytes, cfg.cacheAssoc),
      instructions_(stats.counter(name + ".instructions",
                                  "work-item operations retired")),
      vliwInstrs_(stats.counter(name + ".vliwInstrs",
                                "VLIW instructions issued")),
      memOps_(stats.counter(name + ".memOps", "memory operations")),
      cacheHits_(stats.counter(name + ".cacheHits",
                               "read-cache hits")),
      coalesced_(stats.counter(name + ".coalesced",
                               "read misses merged into an "
                               "outstanding fetch")),
      threadsRun_(stats.counter(name + ".threads",
                                "work-items executed"))
{
    slots_.reserve(cfg.numContexts);
    for (unsigned i = 0; i < cfg.numContexts; ++i)
        slots_.push_back(std::make_unique<Slot>());
}

void
GpuSimdUnit::flushCache()
{
    readCache_.forEach(
        [this](TagLine &line) { readCache_.invalidate(&line); });
    wcBlock_ = invalidAddr;
}

void
GpuSimdUnit::assignWork(GpuWork work)
{
    ccsvm_assert(work.count <= freeSlots_,
                 "GPU chunk of %u with %u free contexts", work.count,
                 freeSlots_);
    unsigned assigned = 0;
    for (auto &slot : slots_) {
        if (assigned == work.count)
            break;
        if (slot->inUse)
            continue;
        slot->inUse = true;
        slot->fn = work.fn;
        slot->state = work.state;
        --freeSlots_;
        ++threadsRun_;

        const ThreadId tid = work.first + assigned;
        ++assigned;
        slot->tc.bind(tid, nullptr, this);
        slot->tc.start((*slot->fn)(slot->tc, work.argsPa));
        core::ThreadContext *tc = &slot->tc;
        eq_->schedule(clock_.clockEdge(1),
                      [tc] { tc->resumeFromEvent(); });
    }
    ccsvm_assert(assigned == work.count, "lost GPU contexts");
}

void
GpuSimdUnit::onThreadDone(core::ThreadContext &tc)
{
    for (auto &slot : slots_) {
        if (&slot->tc != &tc)
            continue;
        slot->inUse = false;
        ++freeSlots_;
        slot->fn.reset();
        auto state = std::move(slot->state);
        if (state && --state->remaining == 0 && state->onComplete)
            state->onComplete();
        if (onContextsFreed_)
            onContextsFreed_();
        return;
    }
    ccsvm_panic("onThreadDone for unknown GPU context");
}

void
GpuSimdUnit::onOpDeclared(core::ThreadContext &tc)
{
    ready_.push_back(&tc);
    scheduleCycle();
}

void
GpuSimdUnit::scheduleCycle()
{
    if (cycleScheduled_)
        return;
    cycleScheduled_ = true;
    eq_->schedule(clock_.clockEdge(1), [this] { cycle(); });
}

void
GpuSimdUnit::cycle()
{
    cycleScheduled_ = false;
    for (unsigned issued = 0;
         issued < cfg_.lanes && !ready_.empty(); ++issued) {
        core::ThreadContext *tc = ready_.front();
        ready_.pop_front();
        processOp(*tc);
    }
    if (!ready_.empty())
        scheduleCycle();
}

void
GpuSimdUnit::processOp(core::ThreadContext &tc)
{
    core::GuestOp &op = tc.pendingOp();
    switch (op.kind) {
      case core::OpKind::Compute: {
        const std::uint64_t n =
            std::max<std::uint64_t>(op.computeCount, 1);
        instructions_ += n;
        // VLIW packing: vliwUtilization scalar ops per instruction.
        const auto vliw = static_cast<std::uint64_t>(std::ceil(
            static_cast<double>(n) / cfg_.vliwUtilization));
        vliwInstrs_ += vliw;
        eq_->schedule(clock_.clockEdge(std::max<Cycles>(vliw, 1)),
                      [&tc] { tc.completeOp(0); });
        return;
      }
      case core::OpKind::Memory:
        ++instructions_;
        ++memOps_;
        if (op.mem.writes())
            doWrite(tc);
        else
            doLoad(tc);
        return;
      case core::OpKind::Stall:
        eq_->scheduleIn(op.stallTicks, [&tc] { tc.completeOp(0); });
        return;
      default:
        ccsvm_panic("GPU work-item issued an unsupported op");
    }
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
