/**
 * @file
 * Region-based coherence tests: the VM-side region table, the TLB
 * carrying the attribute alongside the translation, and the L1/
 * directory honoring bypass and protocol-override requests — the
 * protocol-sensitive cases parametrized over every cluster protocol
 * on the coherence harness. Also holds the SWMR-monitor double-writer
 * regression (the monitor used to silently overwrite its writer slot,
 * so two simultaneous writers went undetected).
 */

#include <gtest/gtest.h>

#include "coherence_harness.hh"
#include "protocol_env.hh"
#include "vm/kernel.hh"
#include "vm/tlb.hh"

namespace ccsvm::test
{
namespace
{

using coherence::Protocol;
using coherence::RegionAttr;
using vm::MemRegion;
using vm::RegionMap;

// --------------------------------------------------------------------
// RegionMap: the VM-side attribute table
// --------------------------------------------------------------------

TEST(RegionMap, FindsContainingRegionOrNull)
{
    RegionMap map;
    map.add({"a", 0x10000, 0x2000, RegionAttr::Bypass, {}});
    map.add({"b", 0x20000, 0x1000, RegionAttr::ProtocolOverride,
             Protocol::MESI});

    ASSERT_NE(map.find(0x10000), nullptr);
    EXPECT_EQ(map.find(0x10000)->name, "a");
    EXPECT_EQ(map.find(0x11fff)->name, "a"); // last byte
    EXPECT_EQ(map.find(0x12000), nullptr);   // one past the end
    EXPECT_EQ(map.find(0x0fff8), nullptr);   // just below
    ASSERT_NE(map.find(0x20800), nullptr);
    EXPECT_EQ(map.find(0x20800)->attr, RegionAttr::ProtocolOverride);
    EXPECT_EQ(map.find(0x20800)->protocol, Protocol::MESI);
    EXPECT_EQ(map.size(), 2u);
}

TEST(RegionMapDeathTest, RejectsMisalignedAndOverlapping)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    RegionMap map;
    map.add({"a", 0x10000, 0x2000, RegionAttr::Bypass, {}});
    EXPECT_DEATH(map.add({"mis", 0x10800, 0x1000,
                          RegionAttr::Bypass, {}}),
                 "not page-aligned|overlaps");
    EXPECT_DEATH(map.add({"ov", 0x11000, 0x1000,
                          RegionAttr::Coherent, {}}),
                 "overlaps");
    EXPECT_DEATH(map.add({"ov2", 0x0f000, 0x2000,
                          RegionAttr::Coherent, {}}),
                 "overlaps");
}

TEST(AddressSpaceRegions, KernelAddressSpaceCarriesRegions)
{
    sim::EventQueue eq;
    sim::StatRegistry stats;
    mem::PhysMem phys{64 * 1024 * 1024};
    vm::Kernel kernel(eq, stats, phys, {}, 0x100000,
                      32 * 1024 * 1024);
    auto as = kernel.createAddressSpace();
    as->addRegion({"stream", 0x2000'0000, 0x10000,
                   RegionAttr::Bypass, {}});
    ASSERT_NE(as->regionFor(0x2000'8000), nullptr);
    EXPECT_EQ(as->regionFor(0x2000'8000)->attr, RegionAttr::Bypass);
    EXPECT_EQ(as->regionFor(0x2001'0000), nullptr);
}

// --------------------------------------------------------------------
// TLB: the attribute rides with the translation
// --------------------------------------------------------------------

TEST(TlbRegions, CarriesAttributeAndProtocol)
{
    sim::EventQueue eq;
    sim::StatRegistry stats;
    vm::Tlb tlb(stats, "tlb", 4);
    tlb.insert(0x1000, 0xa000, true, {RegionAttr::Bypass});
    tlb.insert(0x2000, 0xb000, false,
               {RegionAttr::ProtocolOverride, Protocol::MSI});
    tlb.insert(0x3000, 0xc000, true);

    vm::TlbEntry e;
    ASSERT_TRUE(tlb.lookup(0x1008, e));
    EXPECT_EQ(e.frame, 0xa000u);
    EXPECT_TRUE(e.writable);
    EXPECT_EQ(e.region.attr, RegionAttr::Bypass);

    ASSERT_TRUE(tlb.lookup(0x2ff8, e));
    EXPECT_EQ(e.region.attr, RegionAttr::ProtocolOverride);
    EXPECT_EQ(e.region.prot, Protocol::MSI);

    ASSERT_TRUE(tlb.lookup(0x3000, e));
    EXPECT_EQ(e.region.attr, RegionAttr::Coherent);

    // Re-insert updates the attribute in place.
    tlb.insert(0x3000, 0xc000, true, {RegionAttr::Bypass});
    ASSERT_TRUE(tlb.lookup(0x3000, e));
    EXPECT_EQ(e.region.attr, RegionAttr::Bypass);
    EXPECT_EQ(tlb.size(), 3u);
}

// --------------------------------------------------------------------
// SWMR monitor: double-writer regression (satellite bugfix)
// --------------------------------------------------------------------

TEST(SwmrMonitorDeathTest, TwoSimultaneousWritersTrip)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    SwmrMonitor monitor;
    monitor.onSetState(0, 0x1000, CohState::M);
    // A second L1 reaching E or M on the same block used to silently
    // overwrite info.writer; it must panic instead.
    EXPECT_DEATH(monitor.onSetState(1, 0x1000, CohState::M),
                 "two writers");
    EXPECT_DEATH(monitor.onSetState(1, 0x1000, CohState::E),
                 "two writers");
    // The same L1 re-asserting its own write permission is fine.
    monitor.onSetState(0, 0x1000, CohState::E);
    // And a clean hand-off (drop, then the other L1 writes) is fine.
    monitor.onDrop(0, 0x1000);
    monitor.onSetState(1, 0x1000, CohState::M);
}

TEST(SwmrMonitorDeathTest, ReaderThenWriterTrips)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    SwmrMonitor monitor;
    monitor.onSetState(0, 0x2000, CohState::S);
    EXPECT_DEATH(monitor.onSetState(1, 0x2000, CohState::M),
                 "writer L1 1 and 1 readers");
    // The reader upgrading in place is fine.
    monitor.onSetState(0, 0x2000, CohState::M);
}

TEST(SwmrMonitorDeathTest, OwnerThenWriterTrips)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    SwmrMonitor monitor;
    monitor.onSetState(0, 0x3000, CohState::O);
    monitor.onSetState(2, 0x3000, CohState::S);
    EXPECT_DEATH(monitor.onSetState(1, 0x3000, CohState::E),
                 "writer L1 1 and 2 readers");
    EXPECT_DEATH(monitor.onSetState(2, 0x3000, CohState::O),
                 "two owners");
}

TEST(SwmrMonitorDeathTest, L1IdOutsideTheMaskTrips)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    SwmrMonitor monitor;
    monitor.onSetState(31, 0x4000, CohState::S);
    EXPECT_DEATH(monitor.onSetState(32, 0x4000, CohState::S),
                 "L1s 0-31, got L1 32");
    EXPECT_DEATH(monitor.onSetState(-1, 0x4000, CohState::S),
                 "L1s 0-31, got L1 -1");
}

// --------------------------------------------------------------------
// Bypass and override on the coherence harness, per protocol
// --------------------------------------------------------------------

class RegionProtocolTest
    : public ::testing::TestWithParam<Protocol>
{};

TEST_P(RegionProtocolTest, BypassRoundTripWithoutCaching)
{
    CohHarness h(2, 2, {}, {}, GetParam());
    const Addr pa = 0x8000;
    h.phys.writeScalar(pa, 77, 8);

    EXPECT_EQ(h.load(0, pa, 8, {RegionAttr::Bypass}), 77u);
    h.store(1, pa, 123, 8, {RegionAttr::Bypass});
    EXPECT_EQ(h.load(0, pa, 8, {RegionAttr::Bypass}), 123u);
    h.drain();

    // Nothing was cached anywhere: both L1s stay I and the home never
    // allocated an L2 line or fetched a block.
    EXPECT_EQ(h.stateAt(0, pa), CohState::I);
    EXPECT_EQ(h.stateAt(1, pa), CohState::I);
    DirState st;
    L1Id owner;
    unsigned sharers;
    EXPECT_FALSE(h.bank(pa >> mem::blockShift & 1).probe(
        pa, st, owner, sharers));
    EXPECT_EQ(h.caches.bankTotal(".fetches"), 0u);
    EXPECT_EQ(h.caches.bankTotal(".bypassReads"), 2u);
    EXPECT_EQ(h.caches.bankTotal(".bypassWrites"), 1u);
    // The final value landed in physical memory.
    EXPECT_EQ(h.phys.readScalar(pa, 8), 123u);
}

TEST_P(RegionProtocolTest, BypassAtomicReturnsOldValue)
{
    CohHarness h(2, 1, {}, {}, GetParam());
    const Addr pa = 0x9000;
    h.phys.writeScalar(pa, 40, 8);

    EXPECT_EQ(h.amo(0, pa, AmoOp::Add, 2, 0, 8, {RegionAttr::Bypass}),
              40u);
    EXPECT_EQ(h.amo(1, pa, AmoOp::Add, 3, 0, 8, {RegionAttr::Bypass}),
              42u);
    EXPECT_EQ(h.load(0, pa, 8, {RegionAttr::Bypass}), 45u);
    h.drain();
    EXPECT_EQ(h.caches.bankTotal(".bypassWrites"), 2u);
    for (int id = 0; id < h.caches.numL1s(); ++id)
        EXPECT_EQ(h.l1(id).pendingTransactions(), 0u);
}

TEST_P(RegionProtocolTest, BypassHitsResidentL2Copy)
{
    // Shrink the L1 to one 4-way set so coherent traffic leaves an
    // L2-resident line with no L1 copies, then run bypass ops against
    // it: they must be served from (and update) the resident copy.
    L1Config small;
    small.sizeBytes = 4 * mem::blockBytes;
    CohHarness h(1, 1, small, {}, GetParam());

    const Addr first = 0x4000;
    h.store(0, first, 55);
    // Four more blocks in the same set evict `first` from the L1;
    // its dirty data lands at the L2 via PutOwned.
    for (int i = 1; i <= 4; ++i)
        h.store(0, first + Addr(i) * mem::blockBytes, 100 + i);
    h.drain();
    EXPECT_EQ(h.stateAt(0, first), CohState::I);

    DirState st;
    L1Id owner;
    unsigned sharers;
    ASSERT_TRUE(h.bank(0).probe(first, st, owner, sharers));
    EXPECT_EQ(owner, noL1);
    EXPECT_EQ(sharers, 0u);

    EXPECT_EQ(h.load(0, first, 8, {RegionAttr::Bypass}), 55u);
    h.store(0, first, 56, 8, {RegionAttr::Bypass});
    EXPECT_EQ(h.load(0, first, 8, {RegionAttr::Bypass}), 56u);
    EXPECT_EQ(h.amo(0, first, AmoOp::Add, 4, 0, 8, {RegionAttr::Bypass}),
              56u);
    EXPECT_EQ(h.load(0, first, 8, {RegionAttr::Bypass}), 60u);
    h.drain();
    // Served at the home without re-fetching: the fetch count stays
    // at the coherent traffic's level (5 blocks), and the L1 still
    // holds nothing.
    EXPECT_EQ(h.caches.bankTotal(".fetches"), 5u);
    EXPECT_EQ(h.stateAt(0, first), CohState::I);
}

TEST_P(RegionProtocolTest, OverrideRegionControlsSoleCopyFill)
{
    const Protocol cluster = GetParam();
    CohHarness h(2, 1, {}, {}, cluster);

    // A MESI-override page: the sole-copy read fill must be E no
    // matter how weak the cluster protocol is.
    const Addr mesi_pa = 0xa000;
    h.load(0, mesi_pa, 8, {RegionAttr::ProtocolOverride, Protocol::MESI});
    EXPECT_EQ(h.stateAt(0, mesi_pa), CohState::E);

    // An MSI-override page: never E, even under a MOESI cluster.
    const Addr msi_pa = 0xb000;
    h.load(0, msi_pa, 8, {RegionAttr::ProtocolOverride, Protocol::MSI});
    EXPECT_EQ(h.stateAt(0, msi_pa), CohState::S);

    // The MSI-override store now pays an explicit upgrade.
    h.store(0, msi_pa, 9, 8,
            {RegionAttr::ProtocolOverride, Protocol::MSI});
    EXPECT_EQ(h.stateAt(0, msi_pa), CohState::M);
    h.drain();
}

TEST_P(RegionProtocolTest, OverrideMsiReadOfDirtyDataWritesBackHome)
{
    const Protocol cluster = GetParam();
    CohHarness h(2, 1, {}, {}, cluster);
    const Addr pa = 0xc000;

    // Writer dirties the block under the override protocol; a second
    // L1 reads it. MSI has no O state, so whatever the cluster runs,
    // the owner must downgrade and the read must carry the dirty data
    // home (a sharingWb at the directory).
    h.store(0, pa, 31, 8, {RegionAttr::ProtocolOverride, Protocol::MSI});
    EXPECT_EQ(
        h.load(1, pa, 8, {RegionAttr::ProtocolOverride, Protocol::MSI}),
        31u);
    h.drain();
    EXPECT_EQ(h.stateAt(0, pa), CohState::S);
    EXPECT_EQ(h.stateAt(1, pa), CohState::S);
    EXPECT_EQ(h.caches.bankTotal(".sharingWb"), 1u);
}

TEST_P(RegionProtocolTest, RegionClassSplitsDirectoryCounters)
{
    const Protocol cluster = GetParam();
    CohHarness h(3, 1, {}, {}, cluster);

    // Default-coherent block shared then written: its invalidations
    // land in the .coherent split.
    const Addr coh_pa = 0xd000;
    h.load(1, coh_pa);
    h.load(2, coh_pa);
    h.store(1, coh_pa, 1);

    // Override block shared then written: .override split.
    const Addr ovr_pa = 0xe000;
    h.load(1, ovr_pa, 8, {RegionAttr::ProtocolOverride, Protocol::MSI});
    h.load(2, ovr_pa, 8, {RegionAttr::ProtocolOverride, Protocol::MSI});
    h.store(1, ovr_pa, 2, 8,
            {RegionAttr::ProtocolOverride, Protocol::MSI});
    h.drain();

    EXPECT_EQ(h.caches.bankTotal(".invsSent.coherent"), 1u);
    EXPECT_EQ(h.caches.bankTotal(".invsSent.override"), 1u);
    EXPECT_EQ(h.caches.bankTotal(".fetches.coherent"), 1u);
    EXPECT_EQ(h.caches.bankTotal(".fetches.override"), 1u);
}

INSTANTIATE_TEST_SUITE_P(Protocols, RegionProtocolTest,
                         ::testing::ValuesIn(testProtocols()),
                         ProtocolParamName());

} // namespace
} // namespace ccsvm::test
