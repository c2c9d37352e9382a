/**
 * @file
 * Reusable harness for coherence-protocol tests: a CacheSystem of
 * N L1s and B home banks on a torus, with DRAM, physical memory and
 * the SWMR monitor, plus blocking helpers that issue one access and
 * run the event queue until it completes.
 */

#ifndef CCSVM_TESTS_COHERENCE_HARNESS_HH
#define CCSVM_TESTS_COHERENCE_HARNESS_HH

#include "coherence/cache_system.hh"
#include "mem/dram.hh"
#include "mem/phys_mem.hh"
#include "noc/torus.hh"
#include "sim/eventq.hh"
#include "sim/stats.hh"

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

    sim::EventQueue eq;
    sim::StatRegistry stats;
    mem::PhysMem phys{64 * 1024 * 1024};
    mem::DramCtrl dram{eq, stats, "dram", {}};
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
        : net(eq, stats, "noc",
              torusFor(split.cpuL1s + split.mttopL1s + num_banks)),
          caches(
              CacheSystemConfig{
                  {{CoreKind::Cpu, split.cpuL1s, l1_cfg, split.cpuProto,
                    &eq},
                   {CoreKind::Mttop, split.mttopL1s, l1_cfg,
                    split.mttopProto, &eq}},
                  dir_cfg,
                  std::vector<sim::EventQueue *>(
                      static_cast<std::size_t>(num_banks), &eq),
                  hash},
              stats, net, dram, phys)
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

    L1Controller &l1(int id) { return caches.l1(id); }
    Directory &bank(int b) { return caches.bank(b); }

    /** Issue a load at L1 @p id and run until it completes. The
     * optional region attribute/protocol model a request whose page
     * carries a region annotation (bypass or protocol override). */
    std::uint64_t
    load(int id, Addr pa, unsigned size = 8,
         RegionAttr region = RegionAttr::Coherent,
         Protocol region_prot = {})
    {
        std::uint64_t result = 0;
        bool done = false;
        auto req = std::make_unique<MemRequest>();
        req->kind = MemRequest::Kind::Read;
        req->paddr = pa;
        req->size = size;
        req->region = region;
        req->regionProt = region_prot;
        req->onDone = [&](std::uint64_t v) {
            result = v;
            done = true;
        };
        l1(id).access(std::move(req));
        runUntil(done);
        return result;
    }

    /** Issue a store at L1 @p id and run until it completes. */
    void
    store(int id, Addr pa, std::uint64_t value, unsigned size = 8,
          RegionAttr region = RegionAttr::Coherent,
          Protocol region_prot = {})
    {
        bool done = false;
        auto req = std::make_unique<MemRequest>();
        req->kind = MemRequest::Kind::Write;
        req->paddr = pa;
        req->size = size;
        req->wdata = value;
        req->region = region;
        req->regionProt = region_prot;
        req->onDone = [&](std::uint64_t) { done = true; };
        l1(id).access(std::move(req));
        runUntil(done);
    }

    /** Issue an atomic at L1 @p id; returns the old value. */
    std::uint64_t
    amo(int id, Addr pa, AmoOp op, std::uint64_t operand = 0,
        std::uint64_t operand2 = 0, unsigned size = 8,
        RegionAttr region = RegionAttr::Coherent,
        Protocol region_prot = {})
    {
        std::uint64_t result = 0;
        bool done = false;
        auto req = std::make_unique<MemRequest>();
        req->kind = MemRequest::Kind::Amo;
        req->paddr = pa;
        req->size = size;
        req->amoOp = op;
        req->operand = operand;
        req->operand2 = operand2;
        req->region = region;
        req->regionProt = region_prot;
        req->onDone = [&](std::uint64_t v) {
            result = v;
            done = true;
        };
        l1(id).access(std::move(req));
        runUntil(done);
        return result;
    }

    /** Fire an access without waiting (for concurrency tests). */
    void
    issue(int id, MemRequest::Kind kind, Addr pa, std::uint64_t wdata,
          std::function<void(std::uint64_t)> on_done,
          AmoOp op = AmoOp::Add, std::uint64_t operand = 0)
    {
        auto req = std::make_unique<MemRequest>();
        req->kind = kind;
        req->paddr = pa;
        req->size = 8;
        req->wdata = wdata;
        req->amoOp = op;
        req->operand = operand;
        req->onDone = std::move(on_done);
        l1(id).access(std::move(req));
    }

    void
    runUntil(bool &done)
    {
        bool ok = eq.runUntil([&] { return done; });
        ccsvm_assert(ok, "request never completed (deadlock?)");
    }

    /** Run until all queued events drain. */
    void drain() { eq.run(); }

    CohState stateAt(int id, Addr pa) { return l1(id).stateOf(pa); }
};

} // namespace ccsvm::test

#endif // CCSVM_TESTS_COHERENCE_HARNESS_HH
