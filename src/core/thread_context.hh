/**
 * @file
 * ThreadContext: one guest hardware thread.
 *
 * Guest code co_awaits operations on its ThreadContext; the awaiter
 * records the operation and parks the coroutine until the owning core
 * model completes it. A thread has at most one operation outstanding
 * and no write buffer, which is exactly how the paper's chip keeps
 * sequential consistency trivially (Sec. 3.2.3). So each context
 * carries the one L1 request its loads, stores and atomics reuse.
 */

#ifndef CCSVM_CORE_THREAD_CONTEXT_HH
#define CCSVM_CORE_THREAD_CONTEXT_HH

#include <bit>
#include <coroutine>
#include <cstring>

#include "base/logging.hh"
#include "coherence/mem_request.hh"
#include "core/guest_ops.hh"
#include "sim/guest_task.hh"

namespace ccsvm::core
{

/** One guest thread bound to a core model. */
class ThreadContext
{
  public:
    ThreadContext() = default;
    /** Pinned: cores, event callbacks and an L1 queue hold its
     * address (and its request's). */
    ThreadContext(const ThreadContext &) = delete;
    ThreadContext &operator=(const ThreadContext &) = delete;

    /** Rebind for a new task (throughput-core slots are reused). */
    void
    bind(ThreadId tid, runtime::Process *proc, CoreModel *core)
    {
        tid_ = tid;
        process_ = proc;
        core_ = core;
        resume_ = nullptr;
    }

    ThreadId tid() const { return tid_; }
    runtime::Process *process() const { return process_; }
    CoreModel *core() const { return core_; }

    /** Attach (or clear, with nullptr) the trace-capture sink. Not
     * touched by bind(): whoever binds a context sets the sink
     * explicitly so reused MTTOP slots never leak a stale sink. */
    void setSink(OpSink *sink) { sink_ = sink; }
    OpSink *sink() const { return sink_; }

    // --- guest-facing awaitables -----------------------------------

    struct OpAwaiter
    {
        ThreadContext *tc;

        bool await_ready() const noexcept { return false; }

        void
        await_suspend(std::coroutine_handle<> h) noexcept
        {
            tc->resume_ = h;
            // The core must only *schedule* work here; resumption
            // always happens from a later event.
            tc->core_->onOpDeclared(*tc);
        }

        std::uint64_t
        await_resume() const noexcept
        {
            return tc->op_.result;
        }
    };

    /** Awaiter whose result is reinterpreted as T (float loads etc.). */
    template <typename T>
    struct TypedOpAwaiter
    {
        OpAwaiter inner;

        bool await_ready() const noexcept { return false; }

        void
        await_suspend(std::coroutine_handle<> h) noexcept
        {
            inner.await_suspend(h);
        }

        T
        await_resume() const noexcept
        {
            const std::uint64_t bits = inner.await_resume();
            if constexpr (sizeof(T) == 8) {
                return std::bit_cast<T>(bits);
            } else {
                using Narrow =
                    std::conditional_t<sizeof(T) == 4, std::uint32_t,
                        std::conditional_t<sizeof(T) == 2,
                                           std::uint16_t,
                                           std::uint8_t>>;
                return std::bit_cast<T>(
                    static_cast<Narrow>(bits));
            }
        }
    };

    /** Typed load from guest virtual memory. */
    template <typename T>
    TypedOpAwaiter<T>
    load(vm::VAddr va)
    {
        static_assert(sizeof(T) <= 8);
        return TypedOpAwaiter<T>{
            memOp(va, {.kind = coherence::ScalarOp::Kind::Read,
                       .size = sizeof(T)})};
    }

    /** Typed store to guest virtual memory. */
    template <typename T>
    OpAwaiter
    store(vm::VAddr va, T value)
    {
        static_assert(sizeof(T) <= 8);
        std::uint64_t bits = 0;
        std::memcpy(&bits, &value, sizeof(T));
        return memOp(va, {.kind = coherence::ScalarOp::Kind::Write,
                          .size = sizeof(T),
                          .wdata = bits});
    }

    /** Atomic read-modify-write; the await result is the old value. */
    OpAwaiter
    amo(vm::VAddr va, coherence::AmoOp op, std::uint64_t operand = 0,
        std::uint64_t operand2 = 0, unsigned size = 8)
    {
        return memOp(va, {.kind = coherence::ScalarOp::Kind::Amo,
                          .amoOp = op,
                          .size = size,
                          .operand = operand,
                          .operand2 = operand2});
    }

    /** Charge @p n ALU/control instructions of guest work. */
    OpAwaiter
    compute(std::uint64_t n)
    {
        op_ = GuestOp{};
        op_.kind = OpKind::Compute;
        op_.computeCount = n;
        return OpAwaiter{this};
    }

    /** The write syscall launching an MTTOP task (CPU threads only;
     * Sec. 4.3). Completes when the syscall returns, not when the
     * task finishes. */
    OpAwaiter
    mifdWrite(TaskDescriptor desc)
    {
        op_ = GuestOp{};
        op_.kind = OpKind::MifdWrite;
        op_.task = std::make_shared<TaskDescriptor>(std::move(desc));
        return OpAwaiter{this};
    }

    /** Occupy this thread for a fixed wall-clock duration (models
     * opaque driver/runtime calls whose internals we do not refine). */
    OpAwaiter
    stall(Tick ticks)
    {
        op_ = GuestOp{};
        op_.kind = OpKind::Stall;
        op_.stallTicks = ticks;
        return OpAwaiter{this};
    }

    /** Block until a host-side predicate holds, polling periodically
     * (models completion-polling APIs such as clFinish). */
    OpAwaiter
    hostWait(std::function<bool()> pred)
    {
        op_ = GuestOp{};
        op_.kind = OpKind::HostWait;
        op_.hostPred = std::move(pred);
        return OpAwaiter{this};
    }

    /** Issue an externally-built operation verbatim (trace replay);
     * behaves exactly like the typed builders above. */
    OpAwaiter
    rawOp(GuestOp op)
    {
        op_ = std::move(op);
        return OpAwaiter{this};
    }

    // --- core-facing interface --------------------------------------

    /** Adopt and start a root task; first resume happens via
     * resumeFromEvent() scheduled by the core. */
    void
    start(sim::GuestTask task)
    {
        root_ = std::move(task);
    }

    GuestOp &pendingOp() { return op_; }

    /** The request this thread's pending access presents to its L1;
     * free again once the access completes. */
    coherence::MemRequest &memRequest() { return req_; }

    /** Resume the guest coroutine from an event context; handles both
     * the initial start and op completions. */
    void
    resumeFromEvent()
    {
        if (resume_) {
            auto h = resume_;
            resume_ = nullptr;
            h.resume();
        } else {
            root_.resume();
        }
        if (root_.done()) {
            root_.rethrowIfFailed();
            core_->onThreadDone(*this);
        }
    }

    /** Complete the pending op with @p result and resume. */
    void
    completeOp(std::uint64_t result)
    {
        op_.result = result;
        resumeFromEvent();
    }

    bool done() const { return root_.done(); }

  private:
    /** Declare the scalar access @p mem at @p va. */
    OpAwaiter
    memOp(vm::VAddr va, coherence::ScalarOp mem)
    {
        op_ = GuestOp{};
        op_.kind = OpKind::Memory;
        op_.va = va;
        op_.mem = mem;
        return OpAwaiter{this};
    }

    ThreadId tid_ = 0;
    runtime::Process *process_ = nullptr;
    CoreModel *core_ = nullptr;
    OpSink *sink_ = nullptr;

    sim::GuestTask root_;
    std::coroutine_handle<> resume_ = nullptr;
    GuestOp op_;
    coherence::MemRequest req_;
};

} // namespace ccsvm::core

#endif // CCSVM_CORE_THREAD_CONTEXT_HH
