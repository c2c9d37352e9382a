#include "system/ccsvm_machine.hh"

#include <climits>
#include <cmath>
#include <cstdlib>
#include <stdexcept>

#include "base/logging.hh"
#include "sim/sweep.hh"
#include "workloads/replay/capture.hh"
#include "workloads/replay/replayer.hh"

namespace ccsvm::system
{

int
resolveSimThreads(int requested)
{
    if (requested < 0) {
        requested = 1;
        if (const char *env = std::getenv("CCSVM_SIM_THREADS")) {
            char *end = nullptr;
            const long v = std::strtol(env, &end, 10);
            if (env[0] && end && !*end && v >= 0 && v <= INT_MAX) {
                requested = static_cast<int>(v);
            } else {
                ccsvm_warn("CCSVM_SIM_THREADS='%s' is not a "
                           "non-negative integer; running serial",
                           env);
            }
        }
    }
    if (requested == 0)
        requested = static_cast<int>(sim::hardwareJobs());
    return requested;
}

CcsvmMachine::CcsvmMachine(CcsvmConfig cfg)
    : cfg_(std::move(cfg)),
      engine_(partBank0 + cfg_.numL2Banks, cfg_.noc.hopTicks(),
              resolveSimThreads(cfg_.simThreads)),
      stats_(engine_.partitions()),
      phys_(cfg_.physMemBytes)
{
    // Each cluster runs its own protocol, defaulting to the chip-wide
    // one; the home banks mediate a mixed pair.
    cfg_.cpuProtocol = cfg_.cpuProtocol.value_or(cfg_.protocol);
    cfg_.mttopProtocol = cfg_.mttopProtocol.value_or(cfg_.protocol);

    dram_ = std::make_unique<mem::DramCtrl>(sysQ(), stats_, "dram",
                                            cfg_.dram);

    // Each cluster's L1s live in its partition, alongside its cores;
    // each home bank gets its own.
    coherence::CacheSystemConfig caches;
    caches.clusters = {
        {coherence::CoreKind::Cpu, cfg_.numCpuCores, cfg_.cpuL1,
         *cfg_.cpuProtocol, &cpuQ()},
        {coherence::CoreKind::Mttop, cfg_.numMttopCores, cfg_.mttopL1,
         *cfg_.mttopProtocol, &mttopQ()},
    };
    caches.bank = cfg_.l2;
    for (int b = 0; b < cfg_.numL2Banks; ++b)
        caches.bankQueues.push_back(&bankQ(b));
    caches.sliceHash = cfg_.sliceHash;
    caches.swmrChecks = cfg_.swmrChecks;

    // Auto-size the torus to hold all endpoints if the configured grid
    // is too small: CPUs + MTTOPs + L2 banks + MIFD.
    const int endpoints = cfg_.numCpuCores + cfg_.numMttopCores +
                          cfg_.numL2Banks + 1;
    if (cfg_.noc.width * cfg_.noc.height < endpoints) {
        cfg_.noc.width = static_cast<int>(
            std::ceil(std::sqrt(static_cast<double>(endpoints))));
        cfg_.noc.height =
            (endpoints + cfg_.noc.width - 1) / cfg_.noc.width;
    }
    // The MIFD and the grid padding sit in the system partition.
    // Padding nodes never source traffic, but packets pass through
    // them, so they need a fixed owner to keep those hops
    // deterministic.
    net_ = std::make_unique<noc::TorusNetwork>(
        coherence::nodeQueues(caches,
                              cfg_.noc.width * cfg_.noc.height, sysQ()),
        stats_, "noc", cfg_.noc);

    // Observability: arm the tracer before components intern their
    // lanes in buildNodes(). An unparseable category list is a
    // config error, reported like PartEngine's lookahead check.
    if (!cfg_.traceCategories.empty()) {
        unsigned mask = 0;
        if (!sim::Tracer::parseCategories(cfg_.traceCategories, mask))
            throw std::invalid_argument(
                "bad trace categories: " + cfg_.traceCategories);
        stats_.tracer().setMask(mask);
    }
    engineLane_ = stats_.tracer().lane("engine");

    kernel_ = std::make_unique<vm::Kernel>(
        sysQ(), stats_, phys_, cfg_.kernel, cfg_.framePoolBase,
        cfg_.physMemBytes - cfg_.framePoolBase);

    buildNodes(caches);
    if (cfg_.sampleInterval > 0)
        resolveSeries();

    // The barrier hook is pure observability cost: only installed
    // when something consumes it (tracing, sampling, trace capture).
    nextSample_ = cfg_.sampleInterval;
    if (stats_.tracer().anyEnabled() || cfg_.sampleInterval > 0 ||
        !cfg_.captureOut.empty()) {
        engine_.setBarrierHook([this](Tick base, Tick end) {
            onWindowBarrier(base, end);
        });
    }
}

void
CcsvmMachine::onWindowBarrier(Tick base, Tick end)
{
    sim::Tracer &trc = stats_.tracer();
    if (trc.enabled(sim::traceEngine))
        trc.complete(sim::traceEngine, engineLane_, "window", base,
                     end, 0, false);
    trc.flush();

    // Window barriers run single-threaded on a schedule independent
    // of the worker count, so flushing here keeps the capture file
    // byte-identical at any simThreads value.
    if (capture_)
        capture_->atBarrier();

    if (cfg_.sampleInterval > 0 && base >= nextSample_) {
        Sample &s = samples_.emplace_back();
        s.t = base;
        for (const SeriesColumn &col : series_) {
            std::uint64_t v = 0;
            for (const sim::Counter *c : col.counters)
                v += c->value();
            s.values.push_back(v);
        }
        // One sample per crossed boundary set, however many intervals
        // this window skipped.
        do {
            nextSample_ += cfg_.sampleInterval;
        } while (nextSample_ <= base);
    }
}

void
CcsvmMachine::resolveSeries()
{
    auto l1s = [this](const std::string &suffix) {
        std::vector<std::string> names;
        for (int id = 0; id < caches_->numL1s(); ++id)
            names.push_back(caches_->l1Name(id) + suffix);
        return names;
    };
    const std::pair<const char *, std::vector<std::string>> columns[] = {
        {"dram", {"dram.reads", "dram.writes"}},
        {"l1_hits", l1s(".hits")},
        {"l1_misses", l1s(".misses")},
        {"noc_packets", {"noc.packets"}},
        {"noc_bytes", {"noc.bytes"}},
        {"page_faults", {"kernel.pageFaults"}},
    };
    for (const auto &[name, counters] : columns) {
        SeriesColumn &col = series_.emplace_back(SeriesColumn{name, {}});
        for (const std::string &c : counters) {
            ccsvm_assert(stats_.hasCounter(c),
                         "series column %s: no counter %s", name,
                         c.c_str());
            col.counters.push_back(&stats_.counter(c));
        }
    }
}

CcsvmMachine::~CcsvmMachine() = default;

void
CcsvmMachine::buildNodes(const coherence::CacheSystemConfig &caches)
{
    caches_ = std::make_unique<coherence::CacheSystem>(
        caches, stats_, *net_, *dram_, phys_);
    auto mttop_l1 = [this](int j) -> coherence::L1Controller & {
        return caches_->l1(cfg_.numCpuCores + j);
    };
    const noc::NodeId mifd_node = caches_->numL1s() + cfg_.numL2Banks;

    // Per-core walkers (sharing the PTE-lines-in-L2 model) and cores.
    // The walkers all live in the system partition with the PTE-line
    // filter and authoritative PhysMem they share; cores cross into
    // it over the conservative horizon on a TLB miss.
    pteFilter_ = std::make_unique<vm::PteLineFilter>();
    for (int i = 0; i < cfg_.numCpuCores; ++i) {
        walkers_.push_back(std::make_unique<vm::Walker>(
            sysQ(), stats_, "cpu" + std::to_string(i) + ".walker",
            cfg_.walker, *dram_, pteFilter_.get()));
        cpuCores_.push_back(std::make_unique<core::CpuCore>(
            cpuQ(), stats_, "cpu" + std::to_string(i), cfg_.cpu,
            caches_->l1(i), *walkers_.back(), *kernel_, *net_,
            caches_->l1(i).node()));
    }
    for (int j = 0; j < cfg_.numMttopCores; ++j) {
        walkers_.push_back(std::make_unique<vm::Walker>(
            sysQ(), stats_, "mttop" + std::to_string(j) + ".walker",
            cfg_.walker, *dram_, pteFilter_.get()));
        mttopCores_.push_back(std::make_unique<core::MttopCore>(
            mttopQ(), stats_, "mttop" + std::to_string(j), cfg_.mttop,
            mttop_l1(j), *walkers_.back(), *kernel_));
        // Task completions decrement launch-side bookkeeping owned by
        // the CPU cluster.
        mttopCores_.back()->setCompletionQueue(cpuQ());
    }

    // The MIFD.
    mifd_ = std::make_unique<dev::Mifd>(sysQ(), stats_, cfg_.mifd,
                                        *kernel_, *net_, mifd_node);
    std::vector<dev::MttopPort> mttop_ports;
    for (int j = 0; j < cfg_.numMttopCores; ++j)
        mttop_ports.push_back({mttopCores_[j].get(), mttop_l1(j).node()});
    mifd_->connectMttops(std::move(mttop_ports));
    for (auto &cpu : cpuCores_)
        cpu->connectMifd({mifd_.get(), mifd_node});
}

runtime::Process &
CcsvmMachine::createProcess()
{
    processes_.push_back(std::make_unique<runtime::Process>(
        static_cast<int>(processes_.size()), *kernel_, *caches_));
    runtime::Process &proc = *processes_.back();
    // Machine-level region table (driver --region flags): every
    // process sees the same attribute map.
    for (const vm::MemRegion &r : cfg_.regions)
        proc.addressSpace().addRegion(r);
    return proc;
}

void
CcsvmMachine::spawnCpuThread(int cpu_idx, runtime::Process &proc,
                             core::KernelFn fn, vm::VAddr args,
                             std::function<void()> on_done)
{
    ccsvm_assert(cpu_idx >= 0 && cpu_idx < cfg_.numCpuCores,
                 "bad CPU index %d", cpu_idx);
    auto thread = std::make_unique<CpuThread>();
    thread->fn = std::move(fn);
    core::ThreadContext &ref = thread->tc;
    const core::KernelFn &stored_fn = thread->fn;
    cpuThreads_.push_back(std::move(thread));
    ref.bind(proc.allocTid(), &proc, cpuCores_[cpu_idx].get());
    // Set the sink unconditionally so threads spawned outside the
    // captured runMain never inherit one.
    ref.setSink(capture_ && capture_->armed()
                    ? capture_->cpuStream(
                          static_cast<unsigned>(cpu_idx))
                    : nullptr);
    cpuCores_[cpu_idx]->runThread(ref, stored_fn(ref, args),
                                  std::move(on_done));
}

Tick
CcsvmMachine::runMain(runtime::Process &proc, core::KernelFn fn,
                      vm::VAddr args)
{
    const Tick start = engine_.now();
    if (!cfg_.captureOut.empty()) {
        // Arm at the start of the (single) captured run: the premap
        // snapshot must see exactly the host-side init mappings, and
        // a second captured runMain would corrupt the stream keys.
        ccsvm_assert(!capture_,
                     "trace capture supports a single runMain per "
                     "machine");
        ccsvm_assert(processes_.size() == 1 &&
                         processes_.front().get() == &proc,
                     "trace capture requires the traced process to "
                     "be the machine's only process");
        capture_ = std::make_unique<workloads::replay::TraceCapture>(
            workloads::replay::shapeOf(cfg_), cfg_.captureOut,
            static_cast<unsigned>(cfg_.numCpuCores));
        capture_->arm(proc, phys_);
        for (auto &mc : mttopCores_) {
            mc->setCaptureHook(
                [this](const core::TaskDescriptor &desc,
                       ThreadId tid) {
                    return capture_->mttopStream(desc, tid);
                });
        }
    }
    bool done = false;
    spawnCpuThread(0, proc, std::move(fn), args, [&] { done = true; });
    const bool finished = engine_.runUntil([&] { return done; });
    ccsvm_assert(finished, "guest main never exited (deadlock?)");
    const Tick ticks = engine_.now() - start;
    // Quiesce before returning: under protocols without an Owned
    // state the newest copy of a line can be in flight between a
    // downgraded owner and the home (the dirty Unblock of the read
    // that observed main's exit condition) at the instant main exits.
    // funcRead trusts only owner-state L1 copies and the home, so an
    // immediate functional peek — every workload's host validation —
    // would read stale data. Guest threads main did not join simply
    // run to completion here; the measured region still ends at
    // main's exit. The drain is bounded so an unsatisfiable straggler
    // (a thread spinning on a condition only main could have set)
    // degrades to a warning instead of hanging the host forever.
    constexpr Tick quiesceLimit = 100 * tickMs;
    engine_.run(engine_.now() + quiesceLimit);
    if (!engine_.empty()) {
        ccsvm_warn("runMain: events still pending after the "
                   "post-main quiesce window; functional reads may "
                   "see stale data");
    }
    if (capture_ && capture_->armed()) {
        for (auto &mc : mttopCores_)
            mc->setCaptureHook({});
        capture_->finalize();
    }
    return ticks;
}

void
CcsvmMachine::run(Tick limit)
{
    engine_.run(limit);
}

bool
CcsvmMachine::runUntil(const std::function<bool()> &done, Tick limit)
{
    return engine_.runUntil(done, limit);
}

std::uint64_t
CcsvmMachine::dramAccesses() const
{
    return dram_->reads() + dram_->writes();
}

} // namespace ccsvm::system
