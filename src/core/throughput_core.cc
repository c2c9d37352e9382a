#include "core/throughput_core.hh"

#include <algorithm>

#include "sim/parteventq.hh"

namespace ccsvm::core
{

ThroughputCore::ThroughputCore(sim::EventQueue &eq, Tick clock_period,
                               unsigned issue_width,
                               unsigned num_contexts,
                               sim::Counter &instructions,
                               sim::Counter &mem_ops,
                               sim::Counter &threads)
    : eq_(&eq), clock_(eq, clock_period), issueWidth_(issue_width),
      slots_(num_contexts), freeSlots_(num_contexts),
      ready_(num_contexts), doneq_(&eq),
      instructions_(instructions), memOps_(mem_ops), threads_(threads)
{}

void
ThroughputCore::assign(TaskChunk chunk)
{
    ccsvm_assert(chunk.count <= freeSlots_,
                 "chunk of %u threads assigned with %u free contexts",
                 chunk.count, freeSlots_);
    const TaskDescriptor &desc = *chunk.desc;
    unsigned assigned = 0;
    for (Slot &slot : slots_) {
        if (assigned == chunk.count)
            break;
        if (slot.desc)
            continue;
        slot.desc = chunk.desc;
        slot.state = chunk.state;
        --freeSlots_;
        ++threads_;

        const ThreadId tid = chunk.first + assigned;
        ++assigned;
        slot.tc.bind(tid, desc.process, this);
        // Always (re)set the sink: slots are reused, and a stale sink
        // from a captured launch must never leak into later work.
        slot.tc.setSink(captureHook_ ? captureHook_(desc, tid)
                                     : nullptr);
        slot.tc.start(desc.fn(slot.tc, desc.args));
        ThreadContext *tc = &slot.tc;
        eq_->schedule(clock_.clockEdge(1),
                      [tc] { tc->resumeFromEvent(); });
    }
    ccsvm_assert(assigned == chunk.count, "lost context slots");
}

void
ThroughputCore::onThreadDone(ThreadContext &tc)
{
    for (Slot &slot : slots_) {
        if (&slot.tc != &tc)
            continue;
        slot.desc.reset();
        ++freeSlots_;
        auto state = std::move(slot.state);
        // Task-completion bookkeeping belongs to the launching side:
        // it runs in the completion queue's partition.
        if (state && --state->remaining == 0 && state->onComplete)
            sim::callIn(*doneq_, state->onComplete);
        if (onContextsFreed_)
            onContextsFreed_();
        return;
    }
    ccsvm_panic("onThreadDone for unknown context");
}

void
ThroughputCore::onOpDeclared(ThreadContext &tc)
{
    ccsvm_assert(readyCount_ < ready_.size(),
                 "more declared ops than thread contexts");
    ready_[(readyHead_ + readyCount_++) % ready_.size()] = &tc;
    scheduleCycle();
}

void
ThroughputCore::scheduleCycle()
{
    if (cycleScheduled_)
        return;
    cycleScheduled_ = true;
    eq_->schedule(clock_.clockEdge(1), [this] { cycle(); });
}

void
ThroughputCore::cycle()
{
    cycleScheduled_ = false;
    for (unsigned issued = 0; issued < issueWidth_ && readyCount_ > 0;
         ++issued) {
        ThreadContext *tc = ready_[readyHead_];
        readyHead_ = (readyHead_ + 1) % ready_.size();
        --readyCount_;
        issue(*tc);
    }
    if (readyCount_ > 0)
        scheduleCycle();
}

void
ThroughputCore::issue(ThreadContext &tc)
{
    GuestOp &op = tc.pendingOp();
    // issue() runs exactly once per declared op: the single capture
    // point for this thread's guest op stream.
    if (OpSink *sink = tc.sink())
        sink->record(op, eq_->now());
    switch (op.kind) {
      case OpKind::Compute: {
        const std::uint64_t n = std::max<std::uint64_t>(
            op.computeCount, 1);
        instructions_ += n;
        // The batch occupies this thread; other threads keep issuing
        // meanwhile.
        eq_->schedule(clock_.clockEdge(computeCycles(n)),
                      [&tc] { tc.completeOp(0); });
        return;
      }
      case OpKind::Memory:
        ++instructions_;
        ++memOps_;
        access(tc);
        return;
      case OpKind::Stall:
        eq_->scheduleIn(op.stallTicks, [&tc] { tc.completeOp(0); });
        return;
      case OpKind::MifdWrite:
      case OpKind::HostWait:
        // Only CPU threads launch tasks or poll the host.
        ccsvm_panic("throughput-core threads cannot issue %s ops "
                    "(tid %u)",
                    op.kind == OpKind::MifdWrite ? "MIFD-write"
                                                 : "host-wait",
                    tc.tid());
    }
    ccsvm_panic("unknown op kind");
}

} // namespace ccsvm::core
