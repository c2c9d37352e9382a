/**
 * @file
 * An OpenCL-like host runtime over the APU machine — the software
 * stack the paper's Figure 3 host program runs through.
 *
 * Cost constants model the measured behaviour of the Llano-era
 * AMD APP stack: platform/context/queue creation and JIT compilation
 * (clBuildProgram) dominate small problems — the paper's Figure 5
 * therefore reports APU runtime both with and without
 * "compilation and OpenCL initialization"; per-launch driver overhead
 * and clFinish polling dominate medium problems (cf. Daga et al. [8]
 * and Gregg & Hazelwood [14] on transfer/launch overheads).
 *
 * Buffers follow the paper's Figure 3: CL_MEM_ALLOC_HOST_PTR
 * zero-copy — pinned physical pages that the CPU reaches through the
 * uncacheable window and the GPU through its coalescer. Map/unmap
 * charge driver overhead; data movement costs fall out of the
 * uncached/coalesced access paths themselves.
 */

#ifndef CCSVM_APU_OCL_HH
#define CCSVM_APU_OCL_HH

#include <memory>
#include <vector>

#include "apu/apu_machine.hh"
#include "core/thread_context.hh"
#include "sim/guest_task.hh"

namespace ccsvm::apu::ocl
{

using core::KernelFn;
using core::ThreadContext;
using sim::GuestTask;
using vm::VAddr;

/** Driver/runtime cost model. */
struct OclConfig
{
    Tick platformInitLatency = 30 * tickMs; ///< platform+context+queue
    Tick jitCompileLatency = 120 * tickMs;  ///< clBuildProgram
    Tick mapOverhead = 25 * tickUs;         ///< clEnqueueMapBuffer
    Tick unmapOverhead = 25 * tickUs;       ///< clEnqueueUnmapMemObject
    Tick launchOverhead = 45 * tickUs;      ///< clEnqueueNDRangeKernel
    Tick finishOverhead = 12 * tickUs;      ///< clFinish return path
};

/** A zero-copy (ALLOC_HOST_PTR) buffer. */
struct Buffer
{
    Addr pa = 0;    ///< pinned physical base (GPU-visible)
    VAddr va = 0;   ///< host virtual mapping (CPU, uncached)
    Addr bytes = 0;
};

/** A kernel-completion event (clFinish target). */
struct Event
{
    std::shared_ptr<core::TaskState> state;

    bool
    complete() const
    {
        return state && state->remaining == 0;
    }
};

/** One OpenCL context bound to an APU machine and a host process. */
class Context
{
  public:
    Context(ApuMachine &m, runtime::Process &proc,
            OclConfig cfg = {})
        : machine_(&m), proc_(&proc), cfg_(cfg)
    {}

    const OclConfig &config() const { return cfg_; }

    /** Host-side: allocate a zero-copy buffer and map it into the
     * process's address space (pages point at pinned frames). */
    Buffer
    createBuffer(Addr bytes)
    {
        Buffer b;
        b.bytes = bytes;
        b.pa = machine_->allocPinned(bytes);
        b.va = proc_->addressSpace().reserve(bytes);
        for (Addr off = 0; off < bytes; off += mem::pageBytes) {
            proc_->addressSpace().pageTable().map(
                b.va + off, b.pa + off, true);
        }
        return b;
    }

    /** Host-side: stage a kernel-argument block in pinned memory
     * (the driver writes GPU-visible const memory). */
    Addr
    writeArgs(const std::vector<std::uint64_t> &args)
    {
        const Addr pa = machine_->allocPinned(args.size() * 8 + 8);
        for (std::size_t i = 0; i < args.size(); ++i)
            machine_->physMem().writeScalar(pa + i * 8, args[i], 8);
        return pa;
    }

    // --- guest-side API (the host program's calls) -------------------

    /** clGetPlatformIDs .. clCreateCommandQueue. */
    GuestTask
    init(ThreadContext &ctx)
    {
        co_await ctx.stall(cfg_.platformInitLatency);
    }

    /** clCreateProgramWithSource + clBuildProgram (JIT). */
    GuestTask
    buildProgram(ThreadContext &ctx)
    {
        co_await ctx.stall(cfg_.jitCompileLatency);
    }

    /** clEnqueueMapBuffer (zero-copy: driver work only). */
    GuestTask
    mapBuffer(ThreadContext &ctx, const Buffer &)
    {
        co_await ctx.stall(cfg_.mapOverhead);
    }

    /** clEnqueueUnmapMemObject. */
    GuestTask
    unmapBuffer(ThreadContext &ctx, const Buffer &)
    {
        co_await ctx.stall(cfg_.unmapOverhead);
    }

    /** clEnqueueNDRangeKernel: driver overhead, then the GPU runs
     * @p n work-items of @p fn. */
    GuestTask
    enqueueNDRange(ThreadContext &ctx, KernelFn fn, unsigned n,
                   Addr args_pa, Event &ev)
    {
        co_await ctx.stall(cfg_.launchOverhead);
        ev.state = std::make_shared<core::TaskState>();
        ev.state->remaining = static_cast<int>(n);
        machine_->launchGpuTask(std::move(fn), args_pa, n, ev.state);
    }

    /** clFinish: poll for completion, then the return path. */
    GuestTask
    finish(ThreadContext &ctx, Event &ev)
    {
        // Ownership stays in this named local (frame-stored for the
        // coroutine's lifetime); the polled predicate captures only a
        // raw pointer. An owning capture must not ride in the
        // co_await argument temporary: GCC 12 destroys such
        // temporaries on both the suspend and the resume path, and a
        // double-destroyed shared_ptr double-releases the TaskState
        // under the Event still holding it (caught by the ASan CI
        // lane).
        const std::shared_ptr<core::TaskState> state = ev.state;
        core::TaskState *raw = state.get();
        co_await ctx.hostWait(
            [raw] { return !raw || raw->remaining == 0; });
        co_await ctx.stall(cfg_.finishOverhead);
    }

  private:
    ApuMachine *machine_;
    runtime::Process *proc_;
    OclConfig cfg_;
};

} // namespace ccsvm::apu::ocl

#endif // CCSVM_APU_OCL_HH
