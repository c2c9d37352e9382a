/**
 * @file
 * Reusable harness for coherence-protocol tests: a CacheSystem of
 * N L1s and B home banks on a torus, with DRAM, physical memory and
 * the SWMR monitor, plus blocking helpers that issue one access and
 * run until it completes. It runs on a PartEngine partitioned as the
 * CCSVM machine is (the CPU cluster, the MTTOP cluster, DRAM, one
 * partition per bank) at the thread count CCSVM_SIM_THREADS gives.
 * It builds no CcsvmMachine: the machine's MIFD needs an MTTOP core,
 * which the single-cluster tests do not have.
 */

#ifndef CCSVM_TESTS_COHERENCE_HARNESS_HH
#define CCSVM_TESTS_COHERENCE_HARNESS_HH

#include "coherence/cache_system.hh"
#include "mem/dram.hh"
#include "mem/phys_mem.hh"
#include "noc/torus.hh"
#include "sim/parteventq.hh"
#include "sim/stats.hh"
#include "system/ccsvm_machine.hh"

namespace ccsvm::test
{

using namespace ccsvm::coherence;

/** A small CCSVM memory system for protocol testing. */
struct CohHarness
{
    /** Cluster split for the heterogeneous constructor. */
    struct Clusters
    {
        int cpuL1s;
        int mttopL1s;
        Protocol cpuProto;
        Protocol mttopProto;
    };

    /** The engine's partitions, in the machine's order. */
    enum : int
    {
        partCpu = 0,
        partMttop = 1,
        partDram = 2,
        partBank0 = 3,
    };

    /** A 2-row torus rather than the machine's grid: the
     * victim-buffer race tests place their L1s by hop count. */
    noc::TorusConfig torus;
    sim::PartEngine engine;
    sim::StatRegistry stats{engine.partitions()};
    mem::PhysMem phys{64 * 1024 * 1024};
    mem::DramCtrl dram{engine.queue(partDram), stats, "dram", {}};
    CacheSystemConfig config;
    noc::TorusNetwork net;
    CacheSystem caches;

    /**
     * @param num_l1s    number of L1 controllers (one CPU cluster)
     * @param num_banks  number of L2/directory banks
     * @param l1_cfg     L1 geometry/timing
     * @param dir_cfg    L2 bank geometry/timing
     * @param proto      coherence protocol for every controller
     */
    CohHarness(int num_l1s, int num_banks, L1Config l1_cfg = {},
               DirConfig dir_cfg = {},
               Protocol proto = Protocol::MOESI)
        : CohHarness(Clusters{num_l1s, 0, proto, proto}, num_banks,
                     l1_cfg, dir_cfg)
    {}

    /**
     * Heterogeneous harness: @p split.cpuL1s CPU-cluster L1s
     * (ids 0..) running split.cpuProto, then split.mttopL1s
     * MTTOP-cluster L1s running split.mttopProto, against
     * @p num_banks banks homed by @p hash that mediate the pair the
     * way the full machine's directory does.
     */
    CohHarness(const Clusters &split, int num_banks,
               L1Config l1_cfg = {}, DirConfig dir_cfg = {},
               SliceHashKind hash = SliceHashKind::Mod)
        : torus(torusFor(split.cpuL1s + split.mttopL1s + num_banks)),
          engine(partBank0 + num_banks, torus.hopTicks(),
                 system::resolveSimThreads(-1)),
          config{{{CoreKind::Cpu, split.cpuL1s, l1_cfg, split.cpuProto,
                   &engine.queue(partCpu)},
                  {CoreKind::Mttop, split.mttopL1s, l1_cfg,
                   split.mttopProto, &engine.queue(partMttop)}},
                 dir_cfg, bankQueues(num_banks), hash},
          net(nodeQueues(config, torus.width * torus.height,
                         engine.queue(partDram)),
              stats, "noc", torus),
          caches(config, stats, net, dram, phys)
    {}

    /** A 2-row torus with room for @p nodes endpoints. */
    static noc::TorusConfig
    torusFor(int nodes)
    {
        noc::TorusConfig tcfg;
        tcfg.width = (nodes + 1) / 2;
        tcfg.height = 2;
        return tcfg;
    }

    /** Each of @p num_banks banks' own partition queue. */
    std::vector<sim::EventQueue *>
    bankQueues(int num_banks)
    {
        std::vector<sim::EventQueue *> queues;
        for (int b = 0; b < num_banks; ++b)
            queues.push_back(&engine.queue(partBank0 + b));
        return queues;
    }

    L1Controller &l1(int id) { return caches.l1(id); }
    Directory &bank(int b) { return caches.bank(b); }

    /** Fire @p req at L1 @p id without waiting: an event now in the
     * L1's partition, as a core issues it, so call it from the host
     * or from that partition. The caller keeps @p req alive until
     * its onDone runs. */
    void
    issue(int id, MemRequest &req)
    {
        sim::EventQueue &q = engine.queue(
            id < config.clusters[0].count ? partCpu : partMttop);
        ccsvm_assert(!sim::activeQueue() || sim::activeQueue() == &q,
                     "L1 %d issued from another partition", id);
        q.schedule(q.now(), [this, id, &req] { l1(id).access(req); });
    }

    /** Fire @p op at L1 @p id without waiting (for concurrency
     * tests), in a request the harness owns until @p on_done runs.
     * The optional region models a request whose page carries a
     * region annotation (bypass or protocol override). */
    void
    issue(int id, Addr pa, ScalarOp op,
          std::function<void(std::uint64_t)> on_done, Region region = {})
    {
        auto *req = new MemRequest;
        *req = {.op = op,
                .paddr = pa,
                .region = region,
                .onDone = [req, on_done = std::move(on_done)](
                              std::uint64_t v) {
                    // The L1 has moved this callback out of the
                    // request, so it may free it.
                    delete req;
                    on_done(v);
                }};
        issue(id, *req);
    }

    /** Issue @p op at L1 @p id and run until it completes; returns
     * the loaded or old value (0 for a store). */
    std::uint64_t
    access(int id, Addr pa, ScalarOp op, Region region = {})
    {
        std::uint64_t result = 0;
        bool done = false;
        issue(id, pa, op,
              [&](std::uint64_t v) {
                  result = v;
                  done = true;
              },
              region);
        runUntil(done);
        return result;
    }

    /** Blocking load at L1 @p id. */
    std::uint64_t
    load(int id, Addr pa, unsigned size = 8, Region region = {})
    {
        return access(id, pa,
                      {.kind = ScalarOp::Kind::Read, .size = size},
                      region);
    }

    /** Blocking store at L1 @p id. */
    void
    store(int id, Addr pa, std::uint64_t value, unsigned size = 8,
          Region region = {})
    {
        access(id, pa,
               {.kind = ScalarOp::Kind::Write,
                .size = size,
                .wdata = value},
               region);
    }

    /** Blocking atomic at L1 @p id; returns the old value. */
    std::uint64_t
    amo(int id, Addr pa, AmoOp op, std::uint64_t operand = 0,
        std::uint64_t operand2 = 0, unsigned size = 8,
        Region region = {})
    {
        return access(id, pa,
                      {.kind = ScalarOp::Kind::Amo,
                       .amoOp = op,
                       .size = size,
                       .operand = operand,
                       .operand2 = operand2},
                      region);
    }

    void
    runUntil(bool &done)
    {
        bool ok = engine.runUntil([&] { return done; });
        ccsvm_assert(ok, "request never completed (deadlock?)");
    }

    /** Run until all queued events drain. */
    void drain() { engine.run(); }

    CohState stateAt(int id, Addr pa) { return l1(id).stateOf(pa); }
};

} // namespace ccsvm::test

#endif // CCSVM_TESTS_COHERENCE_HARNESS_HH
