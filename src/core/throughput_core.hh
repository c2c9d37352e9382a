/**
 * @file
 * The throughput core: the model the CCSVM chip's MTTOP cores and the
 * APU baseline's GPU SIMD units share.
 *
 * Both are massively-threaded throughput processors (paper Table 2):
 * a core holds a fixed pool of thread contexts, a dispatcher hands it
 * a TaskChunk of threads that each take one free context, and up to
 * issueWidth ready threads advance one operation per core cycle. A
 * compute batch occupies its thread for computeCycles(n) cycles while
 * the other threads keep issuing (SIMT throughput model); a load,
 * store or atomic goes to access(). Those two decisions are the only
 * ones the models make differently: VLIW packing (GpuSimdUnit) versus
 * one operation per cycle (MttopCore), and pinned physical memory
 * through a read cache and coalescer versus a TLB, walker and
 * coherent L1. A thread that exits frees its context, finishes its
 * task's bookkeeping on the completion queue and calls the
 * contexts-freed handler, so the dispatcher can place waiting chunks.
 */

#ifndef CCSVM_CORE_THROUGHPUT_CORE_HH
#define CCSVM_CORE_THROUGHPUT_CORE_HH

#include <functional>
#include <memory>
#include <vector>

#include "base/types.hh"
#include "core/thread_context.hh"
#include "sim/clock.hh"
#include "sim/stats.hh"

namespace ccsvm::core
{

/** Threads [first, first + count) of one task, dispatched to one
 * throughput core. The descriptor is shared by every chunk of the
 * task: coroutine frames reference the kernel callable's captures, so
 * it must outlive every thread of the task. */
struct TaskChunk
{
    std::shared_ptr<TaskDescriptor> desc;
    std::shared_ptr<TaskState> state;
    ThreadId first = 0;
    unsigned count = 0;
};

/** A pool of thread contexts and the issue loop that runs them. */
class ThroughputCore : public CoreModel
{
  public:
    /** The instructions, memOps and threads counters are the
     * model's own, named and described by it. */
    ThroughputCore(sim::EventQueue &eq, Tick clock_period,
                   unsigned issue_width, unsigned num_contexts,
                   sim::Counter &instructions, sim::Counter &mem_ops,
                   sim::Counter &threads);
    ThroughputCore(const ThroughputCore &) = delete;
    ThroughputCore &operator=(const ThroughputCore &) = delete;

    unsigned freeContexts() const { return freeSlots_; }
    unsigned
    totalContexts() const
    {
        return static_cast<unsigned>(slots_.size());
    }

    /**
     * Queue whose partition owns task-completion callbacks
     * (TaskState::onComplete). Launch-side bookkeeping lives with the
     * launching CPU cores, so under a PartEngine completions are
     * relayed there instead of running in the core's partition. The
     * default is the core's own queue.
     */
    void setCompletionQueue(sim::EventQueue &q) { doneq_ = &q; }

    /** Called after every thread exit, once its context is free
     * (the dispatcher's hook). */
    void
    setContextsFreedHandler(std::function<void()> fn)
    {
        onContextsFreed_ = std::move(fn);
    }

    /**
     * Trace-capture hook: resolves the op sink for a freshly assigned
     * thread (keyed by its task's captureId and tid). While set, every
     * assign consults it; a null hook (or a null result) leaves the
     * context sink-free. Runs in this core's partition.
     */
    using CaptureHook =
        std::function<OpSink *(const TaskDescriptor &, ThreadId)>;
    void setCaptureHook(CaptureHook hook)
    {
        captureHook_ = std::move(hook);
    }

    /** Start each thread of @p chunk in a free context; the caller
     * has checked that @p chunk fits. */
    void assign(TaskChunk chunk);

    // CoreModel interface.
    void onOpDeclared(ThreadContext &tc) override;
    void onThreadDone(ThreadContext &tc) override;

  protected:
    /** Core cycles a batch of @p n (>= 1) instructions occupies its
     * thread. */
    virtual Cycles computeCycles(std::uint64_t n) = 0;

    /** Perform @p tc's pending load, store or atomic; the model
     * completes the op when its memory path does. */
    virtual void access(ThreadContext &tc) = 0;

    sim::EventQueue *eq_;
    sim::ClockDomain clock_;

  private:
    /** One thread context; desc is null while the slot is free. */
    struct Slot
    {
        ThreadContext tc;
        std::shared_ptr<TaskDescriptor> desc;
        std::shared_ptr<TaskState> state;
    };

    void scheduleCycle();
    void cycle();
    void issue(ThreadContext &tc);

    unsigned issueWidth_;
    std::vector<Slot> slots_;
    unsigned freeSlots_;
    /** Threads with a declared op, oldest at readyHead_: a ring of
     * one entry per context, since a thread declares one op at a
     * time. */
    std::vector<ThreadContext *> ready_;
    std::size_t readyHead_ = 0;
    std::size_t readyCount_ = 0;
    bool cycleScheduled_ = false;
    sim::EventQueue *doneq_;
    std::function<void()> onContextsFreed_;
    CaptureHook captureHook_;

    sim::Counter &instructions_;
    sim::Counter &memOps_;
    sim::Counter &threads_;
};

} // namespace ccsvm::core

#endif // CCSVM_CORE_THROUGHPUT_CORE_HH
