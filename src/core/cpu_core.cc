#include "core/cpu_core.hh"

#include "core/translate.hh"

namespace ccsvm::core
{

CpuCore::CpuCore(sim::EventQueue &eq, sim::StatRegistry &stats,
                 const std::string &name, const CpuCoreConfig &cfg,
                 coherence::L1Controller &l1, vm::Walker &walker,
                 vm::Kernel &kernel, noc::Network &net,
                 noc::NodeId my_node)
    : eq_(&eq), cfg_(cfg), clock_(eq, cfg.clockPeriod), l1_(&l1),
      walker_(&walker), kernel_(&kernel),
      tlb_(stats, name + ".tlb", cfg.tlbEntries), net_(&net),
      node_(my_node),
      instructions_(stats.counter(name + ".instructions",
                                  "guest instructions retired")),
      memOps_(stats.counter(name + ".memOps",
                            "loads/stores/atomics issued")),
      syscalls_(stats.counter(name + ".syscalls",
                              "MIFD write syscalls")),
      faults_(stats.counter(name + ".pageFaults",
                            "page faults taken")),
      trc_(stats.tracer()), lane_(stats.tracer().lane(name))
{
    kernel.registerCpuTlb(&tlb_, &eq);
}

void
CpuCore::runThread(ThreadContext &tc, sim::GuestTask task,
                   std::function<void()> on_done)
{
    ccsvm_assert(!running_, "CPU core already running a thread");
    running_ = true;
    onDone_ = std::move(on_done);
    tc.bind(tc.tid(), tc.process(), this);
    tc.start(std::move(task));
    // First resume from a fresh event at the next clock edge.
    eq_->schedule(clock_.clockEdge(1), [&tc] { tc.resumeFromEvent(); },
                  sim::prioCpu);
}

void
CpuCore::onThreadDone(ThreadContext &)
{
    running_ = false;
    if (onDone_) {
        auto cb = std::move(onDone_);
        onDone_ = {};
        cb();
    }
}

void
CpuCore::onOpDeclared(ThreadContext &tc)
{
    // Consume an issue slot: at most one instruction per issuePeriod.
    const Tick slot = std::max(clock_.clockEdge(), nextIssue_);
    nextIssue_ = slot + cfg_.issuePeriod;
    eq_->schedule(slot, [this, &tc] { issue(tc); }, sim::prioCpu);
}

void
CpuCore::issue(ThreadContext &tc)
{
    GuestOp &op = tc.pendingOp();
    // issue() runs exactly once per declared op (fault retries
    // re-enter translateAndAccess, not issue), so this is the one
    // capture point for the CPU-side guest op stream.
    if (OpSink *sink = tc.sink())
        sink->record(op, eq_->now());
    switch (op.kind) {
      case OpKind::Compute: {
        const std::uint64_t n = std::max<std::uint64_t>(
            op.computeCount, 1);
        instructions_ += n;
        const Tick done = eq_->now() + n * cfg_.issuePeriod;
        nextIssue_ = done;
        eq_->schedule(done, [&tc] { tc.completeOp(0); },
                      sim::prioCpu);
        return;
      }
      case OpKind::Memory:
        ++instructions_;
        ++memOps_;
        translateAndAccess(tc);
        return;
      case OpKind::MifdWrite:
        ++instructions_;
        ++syscalls_;
        doSyscall(tc);
        return;
      case OpKind::Stall: {
        const Tick done = eq_->now() + op.stallTicks;
        nextIssue_ = done;
        eq_->schedule(done, [&tc] { tc.completeOp(0); },
                      sim::prioCpu);
        return;
      }
      case OpKind::HostWait:
        pollHostWait(tc);
        return;
    }
    ccsvm_panic("unknown op kind");
}

void
CpuCore::pollHostWait(ThreadContext &tc)
{
    GuestOp &op = tc.pendingOp();
    if (op.hostPred()) {
        eq_->schedule(clock_.clockEdge(1), [&tc] { tc.completeOp(0); },
                      sim::prioCpu);
        return;
    }
    eq_->scheduleIn(cfg_.hostWaitPollPeriod,
                    [this, &tc] { pollHostWait(tc); }, sim::prioCpu);
}

void
CpuCore::translateAndAccess(ThreadContext &tc)
{
    translateAndIssue(
        tlb_, *walker_, tc,
        [this, &tc](Addr paddr, const vm::TlbEntry &te) {
            if (uncached_.contains(paddr))
                accessUncached(tc, paddr);
            else
                issueToL1(*l1_, tc, paddr, te);
        },
        // A true fault traps to the kernel; the translation is
        // retried afterwards.
        [this, &tc](runtime::Process &proc, vm::VAddr va) {
            ++faults_;
            kernel_->handlePageFault(proc.addressSpace(), va,
                                     [this, &tc] {
                                         translateAndAccess(tc);
                                     });
        });
}

void
CpuCore::accessUncached(ThreadContext &tc, Addr paddr)
{
    // Pinned zero-copy region: bypass the cache hierarchy entirely.
    // Writes are posted through a one-block write-combining buffer;
    // reads buffer one block. Every block transition is an off-chip
    // transaction — this is the APU's CPU<->GPU communication path.
    const coherence::ScalarOp &op = tc.pendingOp().mem;
    const Addr block = mem::blockAlign(paddr);
    mem::PhysMem &phys = *uncached_.phys;

    switch (op.kind) {
      case coherence::ScalarOp::Kind::Write:
        op.applyTo(phys, paddr);
        if (block != wcBlock_) {
            wcBlock_ = block;
            uncached_.dram->access(true, mem::blockBytes, [] {});
        }
        eq_->scheduleIn(uncached_.writePostLatency,
                        [&tc] { tc.completeOp(0); }, sim::prioCpu);
        return;
      case coherence::ScalarOp::Kind::Read: {
        auto read = [&tc, &phys, paddr] {
            tc.completeOp(tc.pendingOp().mem.applyTo(phys, paddr));
        };
        if (block == rdBlock_) {
            eq_->scheduleIn(uncached_.readHitLatency, read,
                            sim::prioCpu);
            return;
        }
        rdBlock_ = block;
        uncached_.dram->access(false, mem::blockBytes, read);
        return;
      }
      case coherence::ScalarOp::Kind::Amo:
        // Atomics to uncached space: read-modify-write at memory.
        uncached_.dram->access(false, mem::blockBytes,
                               [this, &tc, &phys, paddr] {
            const std::uint64_t old_val =
                tc.pendingOp().mem.applyTo(phys, paddr);
            uncached_.dram->access(true, mem::blockBytes,
                                   [&tc, old_val] {
                                       tc.completeOp(old_val);
                                   });
        });
        return;
    }
}

void
CpuCore::doSyscall(ThreadContext &tc)
{
    GuestOp &op = tc.pendingOp();
    ccsvm_assert(mifd_.dev, "MIFD write syscall without a MIFD");
    auto task = op.task;
    if (trc_.enabled(sim::traceKernel))
        trc_.instant(sim::traceKernel, lane_, "launch", eq_->now(),
                     task ? task->numThreads() : 0);

    // After the kernel syscall path, the driver's descriptor write
    // travels to the MIFD over the interconnect.
    eq_->scheduleIn(cfg_.syscallLatency, [this, task, &tc] {
        MifdIface *dev = mifd_.dev;
        net_->send(node_, mifd_.node, 64,
                   [dev, task] { dev->submitTask(*task); });
        // The syscall returns to the guest once the write is posted.
        tc.completeOp(0);
    });
    nextIssue_ = eq_->now() + cfg_.syscallLatency;
}

} // namespace ccsvm::core
