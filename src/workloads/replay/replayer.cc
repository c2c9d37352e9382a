#include "workloads/replay/replayer.hh"

#include <map>
#include <stdexcept>
#include <utility>

namespace ccsvm::workloads::replay
{

namespace
{

/** Host-side state shared by every replay coroutine of one run; lives
 * on runReplay's stack (runMain is synchronous). */
struct ReplayCtx
{
    runtime::Process *proc = nullptr;
    /** (launch id, tid) -> recorded stream for MTTOP threads. */
    std::map<std::pair<std::uint64_t, std::uint64_t>,
             const TraceStream *>
        mttop;
};

sim::GuestTask
replayStream(core::ThreadContext &tc, const TraceStream &s,
             ReplayCtx &ctx)
{
    for (const TraceRecord &r : s.records) {
        core::GuestOp op = r.op;
        if (op.kind == core::OpKind::MifdWrite) {
            // The recorded launch, run by the launched threads'
            // recorded streams in this run's process. The capture
            // run's launches never carry onComplete (xthreads joins by
            // polling guest memory), so an empty one is faithful.
            auto desc = std::make_shared<core::TaskDescriptor>(*op.task);
            ReplayCtx *cp = &ctx;
            const std::uint64_t id = desc->captureId;
            desc->fn = [cp, id](core::ThreadContext &mtc,
                                vm::VAddr) -> sim::GuestTask {
                const auto it = cp->mttop.find({id, mtc.tid()});
                if (it == cp->mttop.end()) {
                    // Launched thread that recorded no ops: it
                    // existed (occupying a context) but did nothing.
                    co_return;
                }
                co_await replayStream(mtc, *it->second, *cp);
            };
            desc->process = ctx.proc;
            op.task = std::move(desc);
        }
        co_await tc.rawOp(std::move(op));
    }
}

} // namespace

TraceShape
shapeOf(const system::CcsvmConfig &cfg)
{
    TraceShape s;
    s.numCpuCores = static_cast<std::uint32_t>(cfg.numCpuCores);
    s.numMttopCores = static_cast<std::uint32_t>(cfg.numMttopCores);
    s.mttopContexts = cfg.mttop.numContexts;
    s.numL2Banks = static_cast<std::uint32_t>(cfg.numL2Banks);
    s.blockBytes = static_cast<std::uint32_t>(mem::blockBytes);
    s.pageBytes = static_cast<std::uint32_t>(mem::pageBytes);
    s.framePoolBase = cfg.framePoolBase;
    s.physMemBytes = cfg.physMemBytes;
    s.protocol = static_cast<std::uint8_t>(cfg.protocol);
    s.cpuProtocol = static_cast<std::uint8_t>(
        cfg.cpuProtocol.value_or(cfg.protocol));
    s.mttopProtocol = static_cast<std::uint8_t>(
        cfg.mttopProtocol.value_or(cfg.protocol));
    s.sliceHash = static_cast<std::uint8_t>(cfg.sliceHash);
    return s;
}

RunResult
runReplay(system::CcsvmMachine &m, const std::string &trace_path)
{
    if (trace_path.empty()) {
        throw std::runtime_error(
            "replay needs a trace file (--trace FILE)");
    }
    const TraceData t = readTrace(trace_path);

    const std::string err =
        shapeMismatch(t.info.shape, shapeOf(m.config()));
    if (!err.empty()) {
        throw std::runtime_error(
            "trace does not match the configured machine shape — " +
            err);
    }

    // v1 replays exactly one CPU thread (the captured runMain).
    const TraceStream *main_stream = nullptr;
    for (const TraceStream &s : t.streams) {
        if (s.kind != StreamKind::Cpu || s.records.empty())
            continue;
        if (main_stream != nullptr) {
            throw std::runtime_error(
                "multi-CPU-thread traces are not supported by "
                "replay v1");
        }
        main_stream = &s;
    }
    if (main_stream == nullptr)
        throw std::runtime_error("trace has no CPU op stream");

    runtime::Process &proc = m.createProcess();

    // Install the captured region table; regions the machine config
    // already declared (createProcess installs those) are kept as-is.
    for (const vm::MemRegion &r : t.regions) {
        if (!proc.addressSpace().regions().overlaps(r.base, r.size))
            proc.addressSpace().addRegion(r);
    }

    // Re-create the pre-run page mappings in the captured order so
    // the frame allocator evolves exactly as in the capture run;
    // mappings the original run created via page faults are NOT
    // premapped — the replayed faults recreate them.
    vm::FrameAllocator &frames = m.kernel().frames();
    vm::PageTable &pt = proc.addressSpace().pageTable();
    for (const PremapEntry &e : t.premap) {
        const Addr f = frames.alloc();
        if (f != e.frame) {
            throw std::runtime_error(
                "replay frame allocation diverged from the capture "
                "run (is the machine configured differently, or the "
                "trace from an incompatible build?)");
        }
        pt.map(e.vpn << mem::pageShift, f, e.writable);
    }

    ReplayCtx ctx;
    ctx.proc = &proc;
    for (const TraceStream &s : t.streams) {
        if (s.kind == StreamKind::Mttop)
            ctx.mttop[{s.a, s.b}] = &s;
    }

    const TraceStream *ms = main_stream;
    ReplayCtx *cp = &ctx;
    RunResult res = measureMain(
        m, proc, [cp, ms](core::ThreadContext &tc, vm::VAddr) {
            return replayStream(tc, *ms, *cp);
        });
    // Replay has no golden model of its own; the capture run already
    // validated the workload's output. Reaching this point means the
    // whole stream re-executed without faulting the machine.
    res.correct = true;
    return res;
}

} // namespace ccsvm::workloads::replay
