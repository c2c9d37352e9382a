#include "apu/apu_machine.hh"

namespace ccsvm::apu
{

ApuMachine::ApuMachine(ApuConfig cfg)
    : cfg_(std::move(cfg)), phys_(cfg_.physMemBytes),
      pinnedBrk_(cfg_.pinnedBase)
{
    dram_ = std::make_unique<mem::DramCtrl>(eq_, stats_, "dram",
                                            cfg_.dram);
    cfg_.xbar.nodes = cfg_.numCpuCores + 1;
    xbar_ = std::make_unique<noc::CrossbarNetwork>(eq_, stats_,
                                                   "xbar", cfg_.xbar);
    ccsvm_assert(cfg_.framePoolBase < cfg_.pinnedBase,
                 "frame pool overlaps pinned region");
    kernel_ = std::make_unique<vm::Kernel>(
        eq_, stats_, phys_, cfg_.kernel, cfg_.framePoolBase,
        cfg_.pinnedBase - cfg_.framePoolBase);

    // The CPU cluster's private caches share one directory at memory
    // (no data cache), which must be able to track every privately
    // cached line (inclusive): size it at 2x aggregate private cache.
    coherence::CacheSystemConfig caches;
    caches.clusters = {{coherence::CoreKind::Cpu, cfg_.numCpuCores,
                        cfg_.cpuCache, coherence::Protocol::MOESI, &eq_}};
    caches.bank.memoryResident = true;
    caches.bank.bankSizeBytes = 2 * static_cast<Addr>(cfg_.numCpuCores) *
                                cfg_.cpuCache.sizeBytes;
    caches.bank.assoc = 32;
    caches.bank.ctrlLatency = 2 * tickNs; // UNB probe path
    caches.bankQueues = {&eq_};
    caches_ = std::make_unique<coherence::CacheSystem>(
        caches, stats_, *xbar_, *dram_, phys_);

    // PTE lines cached across the CPUs' private hierarchies.
    pteFilter_ = std::make_unique<vm::PteLineFilter>();
    for (int i = 0; i < cfg_.numCpuCores; ++i) {
        walkers_.push_back(std::make_unique<vm::Walker>(
            eq_, stats_, "cpu" + std::to_string(i) + ".walker",
            cfg_.walker, *dram_, pteFilter_.get()));
        cpuCores_.push_back(std::make_unique<core::CpuCore>(
            eq_, stats_, "cpu" + std::to_string(i), cfg_.cpu,
            caches_->l1(i), *walkers_.back(), *kernel_, *xbar_,
            caches_->l1(i).node()));
        core::UncachedWindow win;
        win.base = cfg_.pinnedBase;
        win.size = cfg_.pinnedSize;
        win.phys = &phys_;
        win.dram = dram_.get();
        cpuCores_.back()->setUncachedWindow(win);
    }

    for (int u = 0; u < cfg_.numSimdUnits; ++u) {
        gpuUnits_.push_back(std::make_unique<GpuSimdUnit>(
            eq_, stats_, "gpu" + std::to_string(u), cfg_.gpu, *dram_,
            phys_));
        gpuUnits_.back()->setContextsFreedHandler(
            [this] { dispatchGpu(); });
    }
}

ApuMachine::~ApuMachine() = default;

runtime::Process &
ApuMachine::createProcess()
{
    processes_.push_back(std::make_unique<runtime::Process>(
        static_cast<int>(processes_.size()), *kernel_, *caches_));
    return *processes_.back();
}

sim::Callback
ApuMachine::newCpuThread(int cpu_idx, runtime::Process &proc,
                         core::KernelFn fn, vm::VAddr args,
                         std::function<void()> on_done)
{
    ccsvm_assert(cpu_idx >= 0 && cpu_idx < cfg_.numCpuCores,
                 "bad CPU index %d", cpu_idx);
    auto thread = std::make_unique<CpuThread>();
    thread->fn = std::move(fn);
    CpuThread *tptr = thread.get();
    cpuThreads_.push_back(std::move(thread));
    tptr->tc.bind(proc.allocTid(), &proc, cpuCores_[cpu_idx].get());
    // The kernel function lives in the stored CpuThread so the
    // coroutine's captures stay valid for its whole lifetime.
    return [core = cpuCores_[cpu_idx].get(), tptr, args,
            on_done = std::move(on_done)]() mutable {
        core->runThread(tptr->tc, tptr->fn(tptr->tc, args),
                        std::move(on_done));
    };
}

void
ApuMachine::spawnCpuThread(int cpu_idx, runtime::Process &proc,
                           core::KernelFn fn, vm::VAddr args,
                           std::function<void()> on_done)
{
    // pthread_create is not free on a real OS.
    eq_.scheduleIn(cfg_.threadSpawnLatency,
                   newCpuThread(cpu_idx, proc, std::move(fn), args,
                                std::move(on_done)));
}

Tick
ApuMachine::runMain(runtime::Process &proc, core::KernelFn fn,
                    vm::VAddr args)
{
    const Tick start = eq_.now();
    bool done = false;
    newCpuThread(0, proc, std::move(fn), args, [&] { done = true; })();
    const bool finished = runUntil([&] { return done; });
    ccsvm_assert(finished, "guest main never exited (deadlock?)");
    return eq_.now() - start;
}

void
ApuMachine::run(Tick limit)
{
    eq_.run(limit);
}

bool
ApuMachine::runUntil(const std::function<bool()> &done, Tick limit)
{
    return eq_.runUntil(done, limit);
}

Addr
ApuMachine::allocPinned(Addr bytes)
{
    const Addr pa = pinnedBrk_;
    pinnedBrk_ = roundUp(pinnedBrk_ + bytes, mem::pageBytes);
    ccsvm_assert(pinnedBrk_ <= cfg_.pinnedBase + cfg_.pinnedSize,
                 "pinned region exhausted");
    return pa;
}

void
ApuMachine::launchGpuTask(core::KernelFn fn, Addr args_pa, unsigned n,
                          std::shared_ptr<core::TaskState> state)
{
    // Kernel boundary: the GPU read caches are invalidated so the new
    // kernel observes the CPU's latest (uncached-path) writes.
    for (auto &unit : gpuUnits_)
        unit->flushCache();

    // No process: GPU addresses are physical (pinned).
    auto desc = std::make_shared<core::TaskDescriptor>();
    desc->fn = std::move(fn);
    desc->args = args_pa;
    constexpr unsigned wavefront = 64;
    for (unsigned first = 0; first < n; first += wavefront)
        gpuPending_.push_back(
            {desc, state, first, std::min(wavefront, n - first)});
    dispatchGpu();
}

void
ApuMachine::dispatchGpu()
{
    while (!gpuPending_.empty()) {
        const unsigned count = gpuPending_.front().count;
        GpuSimdUnit *target = nullptr;
        for (auto &unit : gpuUnits_) {
            if (unit->freeContexts() >= count) {
                target = unit.get();
                break;
            }
        }
        if (!target)
            return;
        core::TaskChunk chunk = std::move(gpuPending_.front());
        gpuPending_.pop_front();
        target->assign(std::move(chunk));
    }
}

std::uint64_t
ApuMachine::dramAccesses() const
{
    return dram_->reads() + dram_->writes();
}

} // namespace ccsvm::apu
