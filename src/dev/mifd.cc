#include "dev/mifd.hh"

namespace ccsvm::dev
{

Mifd::Mifd(sim::EventQueue &eq, sim::StatRegistry &stats,
           const MifdConfig &cfg, vm::Kernel &kernel,
           noc::Network &net, noc::NodeId my_node)
    : eq_(&eq), cfg_(cfg), kernel_(&kernel), net_(&net),
      node_(my_node),
      tasks_(stats.counter("mifd.tasks", "tasks accepted")),
      chunks_(stats.counter("mifd.chunks",
                            "SIMD-width chunks dispatched")),
      faultRelays_(stats.counter("mifd.faultRelays",
                                 "MTTOP page faults relayed to CPU")),
      errors_(stats.counter("mifd.errors",
                            "error-register writes")),
      trc_(stats.tracer()), lane_(stats.tracer().lane("mifd"))
{}

void
Mifd::connectMttops(std::vector<MttopPort> cores)
{
    mttops_ = std::move(cores);
    ccsvm_assert(!mttops_.empty(), "MIFD needs MTTOP cores");
    ctxFree_.reserve(mttops_.size());
    ctxFree_.clear();
    for (std::size_t i = 0; i < mttops_.size(); ++i) {
        // Chunks are never split across cores: a core without room
        // for one would leave every launch waiting forever.
        ccsvm_assert(mttops_[i].core->freeContexts() >= cfg_.simdWidth,
                     "MTTOP core %zu has %u thread contexts, fewer "
                     "than the MIFD's SIMD width %u",
                     i, mttops_[i].core->freeContexts(), cfg_.simdWidth);
        ctxFree_.push_back(mttops_[i].core->freeContexts());
        mttops_[i].core->connectMifd(this,
                                     static_cast<unsigned>(i));
    }
}

unsigned
Mifd::totalFreeContexts() const
{
    unsigned total = 0;
    for (unsigned free : ctxFree_)
        total += free;
    return total;
}

void
Mifd::submitTask(core::TaskDescriptor desc)
{
    sim::callIn(*eq_, [this, desc = std::move(desc)]() mutable {
        // The device itself serializes descriptor handling.
        const Tick start = std::max(eq_->now(), deviceFree_);
        deviceFree_ = start + cfg_.taskAcceptLatency;
        eq_->schedule(deviceFree_,
                      [this, desc = std::move(desc)]() mutable {
                          acceptTask(std::move(desc));
                      });
    });
}

void
Mifd::acceptTask(core::TaskDescriptor desc)
{
    ++tasks_;
    const unsigned threads = desc.numThreads();
    if (trc_.enabled(sim::traceKernel))
        trc_.instant(sim::traceKernel, lane_, "task", eq_->now(),
                     threads);

    if (desc.requireAll && threads > totalFreeContexts()) {
        // The paper's semantics: the MIFD does not guarantee that a
        // task requiring global synchronization is entirely
        // scheduled; it flags the shortfall in an error register.
        ++errors_;
        errorReg_ = 1;
    }

    auto shared_desc =
        std::make_shared<core::TaskDescriptor>(std::move(desc));
    auto state = std::make_shared<core::TaskState>();
    state->remaining = static_cast<int>(threads);
    state->onComplete = shared_desc->onComplete;

    for (ThreadId first = shared_desc->firstTid;
         first <= shared_desc->lastTid;
         first += cfg_.simdWidth) {
        pending_.push_back(
            {shared_desc, state, first,
             std::min<unsigned>(cfg_.simdWidth,
                                shared_desc->lastTid - first + 1)});
    }
    dispatch();
}

void
Mifd::dispatch()
{
    while (!pending_.empty()) {
        const core::TaskChunk &c = pending_.front();

        // Round-robin over cores until the device's mirror shows one
        // with room for the chunk. The mirror is decremented here (at
        // the dispatch decision) and refilled by notifyContextsFreed,
        // so dispatched-but-unassigned chunks are never double-counted.
        std::size_t tried = 0;
        std::size_t chosen = mttops_.size();
        while (tried < mttops_.size()) {
            const std::size_t idx =
                (rrNext_ + tried) % mttops_.size();
            if (ctxFree_[idx] >= c.count) {
                chosen = idx;
                break;
            }
            ++tried;
        }
        if (chosen == mttops_.size())
            return; // no contexts free; retried on notifyContextsFreed
        rrNext_ = (chosen + 1) % mttops_.size();

        core::TaskChunk chunk = std::move(pending_.front());
        pending_.pop_front();
        ++chunks_;
        ctxFree_[chosen] -= chunk.count;

        // Device occupancy per dispatch, then the descriptor write
        // travels to the MTTOP core over the interconnect. The
        // delivery closure runs in the MTTOP core's partition and
        // touches only the core, never the device.
        const Tick start = std::max(eq_->now(), deviceFree_);
        deviceFree_ = start + cfg_.chunkDispatchLatency;
        if (trc_.enabled(sim::traceKernel))
            trc_.complete(sim::traceKernel, lane_, "chunk", start,
                          deviceFree_, chunk.first);
        core::MttopCore *core = mttops_[chosen].core;
        const noc::NodeId dst = mttops_[chosen].node;
        eq_->schedule(
            deviceFree_,
            [this, core, dst, chunk = std::move(chunk)]() mutable {
                net_->send(node_, dst, 32,
                           [core, chunk = std::move(chunk)]() mutable {
                               core->assignChunk(std::move(chunk));
                           });
            });
    }
}

void
Mifd::notifyContextsFreed(unsigned port)
{
    sim::callIn(*eq_, [this, port] {
        ccsvm_assert(port < ctxFree_.size(),
                     "freed on unknown port %u", port);
        ++ctxFree_[port];
        ccsvm_assert(ctxFree_[port] <=
                         mttops_[port].core->totalContexts(),
                     "context mirror overflowed on port %u", port);
        if (pending_.empty() || dispatchScheduled_)
            return;
        // Batch re-dispatch onto a fresh event (contexts free during
        // other processing).
        dispatchScheduled_ = true;
        eq_->scheduleIn(cfg_.chunkDispatchLatency, [this] {
            dispatchScheduled_ = false;
            dispatch();
        });
    });
}

void
Mifd::relayPageFault(runtime::Process &proc, vm::VAddr va,
                     std::function<void()> retry)
{
    // The faulting core retries in its own partition once the kernel
    // has serviced the fault.
    auto reply = sim::replyFrom(*eq_, std::move(retry));
    sim::callIn(*eq_, [this, &proc, va,
                       reply = std::move(reply)]() mutable {
        ++faultRelays_;
        if (trc_.enabled(sim::traceVm))
            trc_.complete(sim::traceVm, lane_, "faultRelay",
                          eq_->now(),
                          eq_->now() + cfg_.faultRelayLatency, va);
        // Interrupt a CPU core with {cause=page fault, CR3}; the
        // CPU-side handler cost is the kernel model's fault latency.
        eq_->scheduleIn(cfg_.faultRelayLatency,
                        [this, &proc, va,
                         reply = std::move(reply)]() mutable {
                            kernel_->handlePageFault(
                                proc.addressSpace(), va,
                                std::move(reply));
                        });
    });
}

} // namespace ccsvm::dev
