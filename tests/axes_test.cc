/**
 * @file
 * What each configuration axis does to the whole chip: the protocol,
 * the CPU x MTTOP protocol pair, region attributes, the home-slice
 * hash and the L2 replacer. Every case runs registry workloads the
 * way the `ccsvm` driver does (a default CcsvmConfig with the flags'
 * fields set, then WorkloadEntry::run), at the configuration the
 * comment names in driver flags. That each flag value runs, is
 * echoed, and changes nothing when it spells out a default is the
 * driver's contract, checked by cmake/CheckDriverAxes.cmake.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "protocol_env.hh"
#include "system/ccsvm_machine.hh"
#include "system/coherence_stats.hh"
#include "workloads/registry.hh"

namespace ccsvm::system
{
namespace
{

using cache::ReplacerKind;
using coherence::Protocol;
using coherence::RegionAttr;
using coherence::SliceHashKind;
using test::testProtocols;
using workloads::WorkloadParams;

/** Run registry workload @p name on @p m: `--workload name`. */
workloads::RunResult
runEntry(CcsvmMachine &m, const char *name, const WorkloadParams &p)
{
    const workloads::WorkloadEntry *e =
        workloads::WorkloadRegistry::instance().find(name);
    ccsvm_assert(e, "no workload %s", name);
    return e->run(m, p);
}

/** The whole guest heap as one region:
 * `--region heap:0x20000000:0x40000000:<attr>`. */
vm::MemRegion
heapRegion(RegionAttr attr, Protocol prot = {})
{
    return {"heap", vm::AddressLayout::heapBase,
            vm::AddressLayout::heapLimit - vm::AddressLayout::heapBase,
            attr, prot};
}

TEST(ProtocolAxis, MatmulWritebacksAndInvalidationsOrder)
{
    // --workload matmul --n 16 --protocol P (abl_protocol's n=16
    // row). MOESI's O state absorbs the dirty sharing that MSI and
    // MESI write back home.
    std::map<Protocol, std::uint64_t> wb, invs;
    for (const Protocol proto : testProtocols()) {
        CcsvmConfig cfg;
        cfg.protocol = proto;
        CcsvmMachine m(cfg);
        WorkloadParams p;
        p.n = 16;
        ASSERT_TRUE(runEntry(m, "matmul", p).correct)
            << coherence::protocolName(proto);
        wb[proto] = dirtyWritebacks(m);
        invs[proto] = l1Invalidations(m);
    }
    EXPECT_GT(wb[Protocol::MSI], wb[Protocol::MOESI]);
    EXPECT_GT(wb[Protocol::MESI], wb[Protocol::MOESI]);
    EXPECT_GE(invs[Protocol::MSI], invs[Protocol::MOESI]);
}

TEST(ProtocolPairAxis, MigratoryChargesTheMttopClusterWithoutO)
{
    // --workload synth:migratory --iters 12 --cpu-protocol C
    // --mttop-protocol M, every pair. The hand-offs happen inside the
    // MTTOP cluster: with MOESI CPUs but MSI MTTOPs every hand-off
    // read pays a writeback at the home, which all-MOESI absorbs.
    std::map<test::ProtocolPair, std::uint64_t> mttop_wb;
    for (const auto &[cpu, mttop] : test::testProtocolPairs()) {
        CcsvmConfig cfg;
        cfg.cpuProtocol = cpu;
        cfg.mttopProtocol = mttop;
        CcsvmMachine m(cfg);
        WorkloadParams p;
        p.synth.iters = 12;
        ASSERT_TRUE(runEntry(m, "synth:migratory", p).correct)
            << coherence::protocolName(cpu) << "/"
            << coherence::protocolName(mttop);
        mttop_wb[{cpu, mttop}] = clusterSharingWritebacks(m, "mttop");
    }
    EXPECT_GT((mttop_wb[{Protocol::MOESI, Protocol::MSI}]),
              (mttop_wb[{Protocol::MOESI, Protocol::MOESI}]));
}

TEST(RegionAxis, StreamBypassCutsFillsAndInvalidations)
{
    // --workload synth:stream --iters 1 --synth-threads 16
    // --footprint-kb 1024 --stride 64 --l2-bank-kb 64 --protocol P,
    // without and with --region-hints (stream buffer bypass). 1 MB
    // of sweeps overflows 4 x 64 KB of L2, so the coherent run's
    // inclusive directory keeps recalling L1 copies: traffic an
    // uncacheable buffer never makes. Directory invalidations are
    // Inv messages plus recalls.
    struct Traffic
    {
        std::uint64_t l2Fills, l1Fills, dirInvs, bypassReads,
            bypassWrites;
    };
    for (const Protocol proto : testProtocols()) {
        Traffic t[2];
        for (const bool hints : {false, true}) {
            CcsvmConfig cfg;
            cfg.protocol = proto;
            cfg.l2.bankSizeBytes = 64 * 1024;
            CcsvmMachine m(cfg);
            WorkloadParams p;
            p.synth.iters = 1;
            p.synth.threads = 16;
            p.synth.footprintBytes = 1024 * 1024;
            p.synth.strideBytes = 64;
            p.regionHints = hints;
            ASSERT_TRUE(runEntry(m, "synth:stream", p).correct);
            const coherence::CacheSystem &c = m.caches();
            t[hints] = {c.bankTotal(".fetches"), c.l1Total(".misses"),
                        c.bankTotal(".invsSent.cpu") +
                            c.bankTotal(".invsSent.mttop") +
                            c.bankTotal(".recalls"),
                        c.bankTotal(".bypassReads"),
                        c.bankTotal(".bypassWrites")};
        }
        const Traffic &coh = t[0], &byp = t[1];
        SCOPED_TRACE(coherence::protocolName(proto));
        EXPECT_LT(byp.l2Fills, coh.l2Fills);
        EXPECT_LT(byp.l1Fills, coh.l1Fills);
        EXPECT_LT(byp.dirInvs, coh.dirInvs);
        EXPECT_GT(byp.bypassReads, 0u);
        EXPECT_GT(byp.bypassWrites, 0u);
        EXPECT_EQ(coh.bypassReads + coh.bypassWrites, 0u);
    }
}

TEST(RegionAxis, MesiOverrideCutsMsiUpgrades)
{
    // --workload synth:stream --iters 2 --footprint-kb 64 --protocol
    // msi, without and with --region heap:...:mesi. The override's
    // clean-exclusive fills spare stream's read-then-write loop the
    // upgrades MSI pays.
    std::uint64_t upgrades[2];
    for (const bool mesi : {false, true}) {
        CcsvmConfig cfg;
        cfg.protocol = Protocol::MSI;
        if (mesi)
            cfg.regions.push_back(heapRegion(RegionAttr::ProtocolOverride,
                                             Protocol::MESI));
        CcsvmMachine m(cfg);
        WorkloadParams p;
        p.synth.iters = 2;
        p.synth.footprintBytes = 64 * 1024;
        ASSERT_TRUE(runEntry(m, "synth:stream", p).correct);
        upgrades[mesi] = m.caches().l1Total(".upgrades");
    }
    EXPECT_LT(upgrades[1], upgrades[0]);
}

TEST(RegionAxis, AnnotatedAndBypassedRunsValidate)
{
    // Under every protocol: --workload matmul --n 16 --region-hints
    // (read-mostly inputs), and synth:hot and synth:readmostly
    // --iters 8 with --region heap:...:bypass, whose atomics then go
    // uncached to the home bank.
    for (const Protocol proto : testProtocols()) {
        SCOPED_TRACE(coherence::protocolName(proto));
        CcsvmConfig cfg;
        cfg.protocol = proto;
        WorkloadParams p;
        p.n = 16;
        p.regionHints = true;
        {
            CcsvmMachine m(cfg);
            EXPECT_TRUE(runEntry(m, "matmul", p).correct);
        }
        cfg.regions = {heapRegion(RegionAttr::Bypass)};
        p = {};
        p.synth.iters = 8;
        for (const char *name : {"synth:hot", "synth:readmostly"}) {
            CcsvmMachine m(cfg);
            EXPECT_TRUE(runEntry(m, name, p).correct) << name;
        }
    }
}

TEST(RegionAxis, ExplicitRegionTakesPrecedenceOverHints)
{
    // --workload synth:stream --iters 2 --region-hints --region
    // heap:...:coherent. The hint yields to the region covering its
    // buffer instead of tripping the region table's overlap assert.
    CcsvmConfig cfg;
    cfg.regions = {heapRegion(RegionAttr::Coherent)};
    CcsvmMachine m(cfg);
    WorkloadParams p;
    p.synth.iters = 2;
    p.regionHints = true;
    EXPECT_TRUE(runEntry(m, "synth:stream", p).correct);
}

TEST(BankAxis, XorfoldSpreadsTheStridedStream)
{
    // --workload synth:stream --iters 1 --synth-threads 16
    // --footprint-kb 1024 --stride 256 --slice-hash H. One access
    // every 4 blocks: under mod with 4 banks the home bank is a pure
    // function of the bits the stride holds constant, so one bank
    // holds the whole stream. Peak occupancy of the hottest bank:
    std::map<SliceHashKind, std::uint64_t> peak;
    for (const SliceHashKind hash :
         {SliceHashKind::Mod, SliceHashKind::Xorfold}) {
        CcsvmConfig cfg;
        cfg.sliceHash = hash;
        CcsvmMachine m(cfg);
        WorkloadParams p;
        p.synth.iters = 1;
        p.synth.threads = 16;
        p.synth.footprintBytes = 1024 * 1024;
        p.synth.strideBytes = 256;
        ASSERT_TRUE(runEntry(m, "synth:stream", p).correct);
        for (int b = 0; b < m.caches().numBanks(); ++b) {
            peak[hash] = std::max(
                peak[hash],
                m.stats().get(coherence::CacheSystem::bankName(b) +
                              ".occupancy"));
        }
    }
    EXPECT_LT(peak[SliceHashKind::Xorfold], peak[SliceHashKind::Mod]);
}

TEST(BankAxis, RegionReplacerShieldsCoherentLines)
{
    // --workload matmul --n 32 --region-hints --l2-bank-kb 4
    // --l2-replace R. Four-set banks put the read-mostly inputs and
    // the coherent output in the same sets: lru evicts whatever is
    // oldest, region spends its evictions on the annotated lines.
    std::map<ReplacerKind, std::uint64_t> evictions, coherent;
    for (const ReplacerKind rep :
         {ReplacerKind::Lru, ReplacerKind::Region}) {
        CcsvmConfig cfg;
        cfg.l2.bankSizeBytes = 4 * 1024;
        cfg.l2.replace = rep;
        CcsvmMachine m(cfg);
        WorkloadParams p;
        p.n = 32;
        p.regionHints = true;
        ASSERT_TRUE(runEntry(m, "matmul", p).correct);
        evictions[rep] = m.caches().bankTotal(".conflictEvictions");
        coherent[rep] =
            m.caches().bankTotal(".conflictEvictions.coherent");
    }
    // Without conflicts both ways the comparison proves nothing.
    EXPECT_GT(evictions[ReplacerKind::Lru], 0u);
    EXPECT_GT(evictions[ReplacerKind::Region], 0u);
    EXPECT_LT(coherent[ReplacerKind::Region], coherent[ReplacerKind::Lru]);
}

TEST(BankAxis, ConflictValidatesUnderEveryHashAndReplacer)
{
    // --workload synth:conflict --iters 6 --slice-hash H
    // --l2-replace R, every pair: the pattern that piles every line
    // into one set of one bank under mod.
    for (const SliceHashKind hash : coherence::allSliceHashes) {
        for (const ReplacerKind rep : cache::allReplacers) {
            CcsvmConfig cfg;
            cfg.sliceHash = hash;
            cfg.l2.replace = rep;
            CcsvmMachine m(cfg);
            WorkloadParams p;
            p.synth.iters = 6;
            EXPECT_TRUE(runEntry(m, "synth:conflict", p).correct)
                << coherence::sliceHashName(hash) << "/"
                << cache::replacerName(rep);
        }
    }
}

} // namespace
} // namespace ccsvm::system
