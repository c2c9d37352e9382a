/**
 * @file
 * Guest operation types: the interface between guest code (coroutines)
 * and core timing models.
 *
 * A guest kernel expresses its work as a sequence of typed operations
 * — loads, stores, atomics, compute batches, and the write syscall to
 * the MIFD. Cores consume these at their issue rates (CPU: max IPC
 * 0.5; MTTOP: 8 thread-ops/cycle over 128 contexts) and route memory
 * operations through TLB -> coherence protocol -> NoC -> DRAM.
 */

#ifndef CCSVM_CORE_GUEST_OPS_HH
#define CCSVM_CORE_GUEST_OPS_HH

#include <functional>
#include <memory>

#include "base/types.hh"
#include "coherence/types.hh"
#include "sim/guest_task.hh"
#include "vm/page_table.hh"

namespace ccsvm::runtime
{
class Process;
} // namespace ccsvm::runtime

namespace ccsvm::core
{

class ThreadContext;

/** Guest kernel entry point: the task's "program counter". */
using KernelFn =
    std::function<sim::GuestTask(ThreadContext &, vm::VAddr)>;

/**
 * A task launched on the MTTOP via the MIFD write syscall. Matches
 * the paper's descriptor: {program counter of function, arguments to
 * function, first thread's ID, CR3 register} (Sec. 4.3); CR3 travels
 * via the process pointer.
 */
struct TaskDescriptor
{
    KernelFn fn;
    vm::VAddr args = 0;
    ThreadId firstTid = 0;
    ThreadId lastTid = 0;
    runtime::Process *process = nullptr;
    /** Task needs all threads resident for global synchronization. */
    bool requireAll = true;
    /** Host callback once every thread of the task has exited. */
    std::function<void()> onComplete;
    /** Trace-capture launch id, stamped by the capture sink when the
     * launching MIFD write is recorded (0 = not captured). Travels
     * with the by-value descriptor copy through the MIFD so MTTOP-side
     * capture can key thread streams to their launch. */
    std::uint64_t captureId = 0;

    unsigned
    numThreads() const
    {
        return lastTid - firstTid + 1;
    }
};

/** Shared completion bookkeeping for one launched task. */
struct TaskState
{
    int remaining = 0;
    std::function<void()> onComplete;
};

/** Abstract MIFD as seen from the cores (implemented in dev/). */
class MifdIface
{
  public:
    virtual ~MifdIface() = default;

    /** CPU write syscall payload arrives here. */
    virtual void submitTask(TaskDescriptor desc) = 0;

    /** An MTTOP core relays a page fault to a CPU via the MIFD. */
    virtual void relayPageFault(runtime::Process &proc, vm::VAddr va,
                                std::function<void()> retry) = 0;

    /** One thread context on MTTOP core @p port became free; pending
     * chunks may start. The port index lets the device maintain its
     * own free-context mirror instead of polling the cores. */
    virtual void notifyContextsFreed(unsigned port) = 0;
};

/** Kinds of guest operations. */
enum class OpKind : std::uint8_t
{
    Memory,   ///< a load, store or atomic: the ScalarOp in mem
    Compute,
    MifdWrite,
    Stall,    ///< occupy the thread for a fixed time (driver calls)
    HostWait, ///< poll a host-side predicate (e.g. clFinish)
};

/** One declared guest operation. */
struct GuestOp
{
    OpKind kind = OpKind::Compute;
    vm::VAddr va = 0;
    coherence::ScalarOp mem;              ///< for Memory
    std::uint64_t computeCount = 0;
    std::shared_ptr<TaskDescriptor> task; ///< for MifdWrite
    Tick stallTicks = 0;                  ///< for Stall
    std::function<bool()> hostPred;       ///< for HostWait
    std::uint64_t result = 0;
};

/**
 * Observer for trace capture (workloads/replay): a thread context may
 * carry a sink, and the owning core reports every guest operation to
 * it at the op's issue point. Sinks are pure host-side observers —
 * they must not schedule events or touch simulated state. @p op is
 * mutable only so MIFD-write capture can stamp the descriptor's
 * captureId.
 */
class OpSink
{
  public:
    virtual ~OpSink() = default;

    virtual void record(GuestOp &op, Tick now) = 0;
};

/** Interface implemented by core timing models. */
class CoreModel
{
  public:
    virtual ~CoreModel() = default;

    /** A thread bound to this core declared its next operation. */
    virtual void onOpDeclared(ThreadContext &tc) = 0;

    /** A thread's root coroutine ran to completion. */
    virtual void onThreadDone(ThreadContext &tc) = 0;
};

} // namespace ccsvm::core

#endif // CCSVM_CORE_GUEST_OPS_HH
