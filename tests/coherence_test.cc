/**
 * @file
 * Directory protocol unit tests, value-parametrized over the three
 * coherence protocols (msi, mesi, moesi): every stable-state
 * transition plus eviction, recall and upgrade paths. Expectations
 * that depend on the protocol (E fills, Owned dirty sharing,
 * writeback-on-read) branch on the policy's capability bits; the
 * moesi instantiation asserts exactly the seed tree's behavior.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <utility>
#include <vector>

#include "coherence_harness.hh"
#include "protocol_env.hh"

namespace ccsvm::test
{
namespace
{

class CoherenceP : public ::testing::TestWithParam<Protocol>
{
  protected:
    Protocol proto() const { return GetParam(); }

    /** E state: sole-copy read fills are granted Exclusive. */
    bool
    hasE() const
    {
        return protocolPolicy(proto()).hasExclusiveState();
    }

    /** O state: a dirty owner keeps its block on a read. */
    bool
    hasO() const
    {
        return protocolPolicy(proto()).allowsDirtySharing();
    }

    /** Expected L1 state after a sole-copy read fill. */
    CohState
    soleReadState() const
    {
        return hasE() ? CohState::E : CohState::S;
    }

    /** L1s holding one line each, for the victim-buffer races: in a
     * 4-L1, 1-bank harness L1 1 is one hop from the home and L1 0
     * two, so a request L1 1 sends when L1 0 evicts a block reaches
     * the home before L1 0's put does. */
    static constexpr L1Config oneLineL1{64, 1, 690, 8};

    /** Have L1 0 load @p other, whose fill evicts @p x from L1 0's
     * one line, and run only until x has left the array: its put is
     * then in flight and its copy sits in the victim buffer. */
    static void
    evictFromL1Zero(CohHarness &h, Addr x, Addr other)
    {
        ASSERT_NE(h.stateAt(0, x), CohState::I);
        h.issue(0, other, {.kind = ScalarOp::Kind::Read},
                [](std::uint64_t) {});
        ASSERT_TRUE(h.engine.runUntil(
            [&] { return h.stateAt(0, x) == CohState::I; }));
    }
};

TEST_P(CoherenceP, ColdReadReturnsMemoryValueAndGrantsBestState)
{
    CohHarness h(2, 2, {}, {}, proto());
    h.phys.writeScalar(0x1000, 0xfeedbeef, 8);
    EXPECT_EQ(h.load(0, 0x1000), 0xfeedbeefu);
    // Sole cached copy: MESI/MOESI grant Exclusive, MSI only Shared.
    EXPECT_EQ(h.stateAt(0, 0x1000), soleReadState());

    h.drain(); // let the Unblock reach the directory
    DirState st;
    L1Id owner;
    unsigned sharers;
    Directory &bank = h.bank((0x1000 >> 6) % 2);
    ASSERT_TRUE(bank.probe(0x1000, st, owner, sharers));
    if (hasE()) {
        EXPECT_EQ(st, DirState::X);
        EXPECT_EQ(owner, 0);
        EXPECT_EQ(sharers, 0u);
    } else {
        EXPECT_EQ(st, DirState::S);
        EXPECT_EQ(owner, noL1);
        EXPECT_EQ(sharers, 1u);
    }
}

TEST_P(CoherenceP, ReadHitAfterFillIsLocal)
{
    CohHarness h(2, 2, {}, {}, proto());
    h.load(0, 0x2000);
    const auto misses_before = h.stats.get("cpu0.l1.misses");
    EXPECT_EQ(h.load(0, 0x2000), 0u);
    EXPECT_EQ(h.stats.get("cpu0.l1.misses"), misses_before);
    EXPECT_GE(h.stats.get("cpu0.l1.hits"), 1u);
}

TEST_P(CoherenceP, StoreMakesMAndReadsBack)
{
    CohHarness h(2, 2, {}, {}, proto());
    h.store(0, 0x3000, 0x1234);
    EXPECT_EQ(h.stateAt(0, 0x3000), CohState::M);
    EXPECT_EQ(h.load(0, 0x3000), 0x1234u);
}

TEST_P(CoherenceP, PrivateReadThenWriteUpgradeCost)
{
    // With an E state a sole-copy read-then-write upgrades silently;
    // without one (msi) the write must pay an explicit GetM.
    CohHarness h(2, 2, {}, {}, proto());
    h.load(0, 0x11000); // bank 0
    h.drain();
    const auto getm_before = h.stats.get("dir0.getM");
    h.store(0, 0x11000, 5);
    EXPECT_EQ(h.stats.get("dir0.getM") - getm_before,
              hasE() ? 0u : 1u);
    EXPECT_EQ(h.stateAt(0, 0x11000), CohState::M);
    EXPECT_EQ(h.load(0, 0x11000), 5u);
}

TEST_P(CoherenceP, SecondReaderLeavesBothSharersInS)
{
    CohHarness h(2, 2, {}, {}, proto());
    h.phys.writeScalar(0x4000, 77, 8);
    h.load(0, 0x4000);
    EXPECT_EQ(h.stateAt(0, 0x4000), soleReadState());
    EXPECT_EQ(h.load(1, 0x4000), 77u);
    // A clean owner downgrades to S; both end up sharers.
    EXPECT_EQ(h.stateAt(0, 0x4000), CohState::S);
    EXPECT_EQ(h.stateAt(1, 0x4000), CohState::S);

    h.drain();
    DirState st;
    L1Id owner;
    unsigned sharers;
    ASSERT_TRUE(h.bank(0).probe(0x4000, st, owner, sharers));
    EXPECT_EQ(st, DirState::S);
    EXPECT_EQ(sharers, 2u);
}

TEST_P(CoherenceP, ReaderOfDirtyBlockFollowsOwnedPolicy)
{
    CohHarness h(2, 2, {}, {}, proto());
    h.store(0, 0x5000, 42);
    EXPECT_EQ(h.load(1, 0x5000), 42u);
    EXPECT_EQ(h.stateAt(1, 0x5000), CohState::S);

    h.drain();
    DirState st;
    L1Id owner;
    unsigned sharers;
    ASSERT_TRUE(h.bank(0).probe(0x5000, st, owner, sharers));
    if (hasO()) {
        // MOESI: the dirty owner keeps the block in Owned.
        EXPECT_EQ(h.stateAt(0, 0x5000), CohState::O);
        EXPECT_EQ(st, DirState::O);
        EXPECT_EQ(owner, 0);
        EXPECT_EQ(sharers, 1u);
        EXPECT_EQ(h.stats.get("dir0.sharingWb"), 0u);
    } else {
        // msi/mesi: the dirty data came home on the Unblock and the
        // line is clean-shared by both L1s.
        EXPECT_EQ(h.stateAt(0, 0x5000), CohState::S);
        EXPECT_EQ(st, DirState::S);
        EXPECT_EQ(owner, noL1);
        EXPECT_EQ(sharers, 2u);
        EXPECT_EQ(h.stats.get("dir0.sharingWb"), 1u);
        // The home copy must now hold the written value.
        std::uint8_t buf[mem::blockBytes];
        ASSERT_TRUE(h.bank(0).funcReadBlock(0x5000, buf));
        std::uint64_t v = 0;
        std::memcpy(&v, buf, 8);
        EXPECT_EQ(v, 42u);
    }
}

TEST_P(CoherenceP, WriteInvalidatesAllSharers)
{
    CohHarness h(3, 2, {}, {}, proto());
    h.phys.writeScalar(0x6000, 5, 8);
    h.load(0, 0x6000);
    h.load(1, 0x6000);
    h.load(2, 0x6000);
    h.store(0, 0x6000, 99);
    EXPECT_EQ(h.stateAt(0, 0x6000), CohState::M);
    EXPECT_EQ(h.stateAt(1, 0x6000), CohState::I);
    EXPECT_EQ(h.stateAt(2, 0x6000), CohState::I);
    EXPECT_EQ(h.load(1, 0x6000), 99u);
}

TEST_P(CoherenceP, UpgradeFromSUsesDatalessGrant)
{
    CohHarness h(2, 2, {}, {}, proto());
    h.load(0, 0x7000);
    h.load(1, 0x7000);
    // L1 0 already has the data; the grant carries no payload.
    const auto bytes_before = h.stats.get("noc.bytes");
    h.store(0, 0x7000, 1);
    const auto delta = h.stats.get("noc.bytes") - bytes_before;
    // GetM + GrantM + Inv + InvAck + Unblock: all control-sized.
    EXPECT_LT(delta, 5 * 72u);
    EXPECT_EQ(h.stateAt(0, 0x7000), CohState::M);
    EXPECT_GE(h.stats.get("cpu0.l1.upgrades"), 1u);
}

TEST_P(CoherenceP, OwnershipTransfersOnFwdGetM)
{
    CohHarness h(2, 2, {}, {}, proto());
    h.store(0, 0x8000, 10);
    h.store(1, 0x8000, 20);
    EXPECT_EQ(h.stateAt(0, 0x8000), CohState::I);
    EXPECT_EQ(h.stateAt(1, 0x8000), CohState::M);
    EXPECT_EQ(h.load(0, 0x8000), 20u);
}

TEST_P(CoherenceP, DirtySharedWriterUpgradeInvalidatesSharers)
{
    CohHarness h(3, 2, {}, {}, proto());
    h.store(0, 0x9000, 1);
    h.load(1, 0x9000); // moesi: 0 -> O; msi/mesi: 0 -> S (wb home)
    h.load(2, 0x9000); // 2 -> S
    ASSERT_EQ(h.stateAt(0, 0x9000),
              hasO() ? CohState::O : CohState::S);
    h.store(0, 0x9000, 2); // upgrade: GrantM + Invs to the sharers
    EXPECT_EQ(h.stateAt(0, 0x9000), CohState::M);
    EXPECT_EQ(h.stateAt(1, 0x9000), CohState::I);
    EXPECT_EQ(h.stateAt(2, 0x9000), CohState::I);
    EXPECT_EQ(h.load(1, 0x9000), 2u);
}

TEST_P(CoherenceP, SparseWriterReaderPingPong)
{
    CohHarness h(2, 2, {}, {}, proto());
    for (std::uint64_t i = 1; i <= 20; ++i) {
        h.store(0, 0xa000, i);
        EXPECT_EQ(h.load(1, 0xa000), i);
    }
    // Producer repeatedly upgrades; consumer re-fetches the dirty
    // block from the owner every round.
    EXPECT_GE(h.stats.get("cpu0.l1.fwds"), 19u);
}

TEST_P(CoherenceP, AtomicReturnsOldValue)
{
    CohHarness h(2, 2, {}, {}, proto());
    h.store(0, 0xb000, 100);
    EXPECT_EQ(h.amo(1, 0xb000, AmoOp::Add, 5), 100u);
    EXPECT_EQ(h.load(0, 0xb000), 105u);
}

TEST_P(CoherenceP, AtomicCasSuccessAndFailure)
{
    CohHarness h(2, 2, {}, {}, proto());
    h.store(0, 0xc000, 7);
    // Failed CAS: compare 9 != 7.
    EXPECT_EQ(h.amo(1, 0xc000, AmoOp::Cas, 9, 111), 7u);
    EXPECT_EQ(h.load(1, 0xc000), 7u);
    // Successful CAS.
    EXPECT_EQ(h.amo(1, 0xc000, AmoOp::Cas, 7, 111), 7u);
    EXPECT_EQ(h.load(0, 0xc000), 111u);
}

TEST_P(CoherenceP, AtomicIncDecExchMinMax)
{
    CohHarness h(1, 1, {}, {}, proto());
    h.store(0, 0xd000, 10);
    EXPECT_EQ(h.amo(0, 0xd000, AmoOp::Inc), 10u);
    EXPECT_EQ(h.amo(0, 0xd000, AmoOp::Dec), 11u);
    EXPECT_EQ(h.amo(0, 0xd000, AmoOp::Exch, 55), 10u);
    EXPECT_EQ(h.amo(0, 0xd000, AmoOp::Min, 50), 55u);
    EXPECT_EQ(h.amo(0, 0xd000, AmoOp::Max, 70), 50u);
    EXPECT_EQ(h.load(0, 0xd000), 70u);
}

TEST_P(CoherenceP, InterleavedAtomicsFromAllL1sSumExactly)
{
    // The classic coherence smoke test: concurrent atomic increments
    // must never lose an update. Each L1 keeps one atomic in flight.
    constexpr int num_l1s = 4;
    constexpr int per_l1 = 50;
    CohHarness h(num_l1s, 2, {}, {}, proto());
    int completed = 0;

    std::function<void(int, int)> kick = [&](int id, int remaining) {
        if (remaining == 0)
            return;
        h.issue(id, 0xe000,
                {.kind = ScalarOp::Kind::Amo, .amoOp = AmoOp::Inc},
                [&, id, remaining](std::uint64_t) {
                    ++completed;
                    kick(id, remaining - 1);
                });
    };
    for (int id = 0; id < num_l1s; ++id)
        kick(id, per_l1);
    h.drain();
    EXPECT_EQ(completed, num_l1s * per_l1);
    EXPECT_EQ(h.load(0, 0xe000),
              static_cast<std::uint64_t>(num_l1s * per_l1));
}

TEST_P(CoherenceP, MshrCoalescesSameBlockReads)
{
    CohHarness h(1, 1, {}, {}, proto());
    int done = 0;
    h.issue(0, 0xf000, {.kind = ScalarOp::Kind::Read},
            [&](std::uint64_t) { ++done; });
    h.issue(0, 0xf008, {.kind = ScalarOp::Kind::Read},
            [&](std::uint64_t) { ++done; });
    h.issue(0, 0xf010, {.kind = ScalarOp::Kind::Read},
            [&](std::uint64_t) { ++done; });
    h.drain();
    EXPECT_EQ(done, 3);
    // One transaction for the whole block.
    EXPECT_EQ(h.stats.get("dir0.getS") + h.stats.get("dir0.getM"),
              1u);
}

TEST_P(CoherenceP, CoalescedStoreBehindReadUpgrades)
{
    CohHarness h(2, 2, {}, {}, proto());
    // Make the block shared so the GetS grants S (not E).
    h.phys.writeScalar(0x10000, 3, 8);
    h.load(1, 0x10000);
    h.store(1, 0x10000, 3); // L1 1 owns it M
    int done = 0;
    std::uint64_t read_val = 0;
    h.issue(0, 0x10000, {.kind = ScalarOp::Kind::Read},
            [&](std::uint64_t v) {
                read_val = v;
                ++done;
            });
    h.issue(0, 0x10000,
            {.kind = ScalarOp::Kind::Write, .wdata = 9},
            [&](std::uint64_t) { ++done; });
    h.drain();
    EXPECT_EQ(done, 2);
    EXPECT_EQ(read_val, 3u);
    EXPECT_EQ(h.stateAt(0, 0x10000), CohState::M);
    EXPECT_EQ(h.load(1, 0x10000), 9u);
}

TEST_P(CoherenceP, MshrOverflowQueuesAndDrains)
{
    L1Config cfg;
    cfg.maxMshrs = 1;
    CohHarness h(1, 1, cfg, {}, proto());
    // Seven misses wait for the one MSHR and take it in issue order.
    std::vector<Addr> issued, completed;
    for (Addr a = 0; a < 8; ++a) {
        const Addr pa = 0x20000 + a * 64;
        issued.push_back(pa);
        h.issue(0, pa, {.kind = ScalarOp::Kind::Read},
                [&completed, pa](std::uint64_t) {
                    completed.push_back(pa);
                });
    }
    h.drain();
    EXPECT_EQ(completed, issued);
}

TEST_P(CoherenceP, L1EvictionWritesBackThroughPutOwned)
{
    // L1 with 2 sets x 4 ways x 64B = 512B; fill one set over assoc.
    L1Config cfg;
    cfg.sizeBytes = 512;
    cfg.assoc = 4;
    CohHarness h(2, 1, cfg, {}, proto());
    // Blocks mapping to set 0 of a 2-set cache: stride 128.
    for (int i = 0; i < 6; ++i)
        h.store(0, 0x30000 + static_cast<Addr>(i) * 128,
                1000 + static_cast<Addr>(i));
    h.drain();
    EXPECT_GE(h.stats.get("cpu0.l1.evictions"), 2u);
    // Evicted dirty data must be recoverable from the L2 by a peer.
    for (int i = 0; i < 6; ++i) {
        EXPECT_EQ(h.load(1, 0x30000 + static_cast<Addr>(i) * 128),
                  1000u + static_cast<Addr>(i));
    }
}

TEST_P(CoherenceP, CleanEvictionDoesNotCarryData)
{
    L1Config cfg;
    cfg.sizeBytes = 512;
    cfg.assoc = 4;
    CohHarness h(1, 1, cfg, {}, proto());
    // Read-only misses fill clean (E or S); evictions write nothing.
    for (int i = 0; i < 8; ++i)
        h.load(0, 0x40000 + static_cast<Addr>(i) * 128);
    h.drain();
    EXPECT_GE(h.stats.get("cpu0.l1.evictions"), 4u);
    EXPECT_EQ(h.stats.get("dir0.writebacks"), 0u);
}

TEST_P(CoherenceP, FwdGetSRacingPutIsAnsweredFromVictimBuffer)
{
    CohHarness h(4, 1, oneLineL1, {}, proto());
    const Addr x = 0x11000;
    h.store(0, x, 5);
    evictFromL1Zero(h, x, x + 64);
    // L1 1's read beats the PutOwned: the home forwards it to L1 0,
    // which answers from its victim buffer.
    EXPECT_EQ(h.load(1, x), 5u);
    EXPECT_EQ(h.stats.get("cpu0.l1.fwds"), 1u);
    h.drain();
    EXPECT_EQ(h.load(3, x), 5u);
    EXPECT_EQ(h.stateAt(0, x), CohState::I);
}

TEST_P(CoherenceP, FwdGetMRacingPutIsAnsweredFromVictimBuffer)
{
    CohHarness h(4, 1, oneLineL1, {}, proto());
    const Addr x = 0x12000;
    h.store(0, x, 5);
    evictFromL1Zero(h, x, x + 64);
    EXPECT_EQ(h.amo(1, x, AmoOp::Add, 3), 5u);
    EXPECT_EQ(h.stats.get("cpu0.l1.fwds"), 1u);
    EXPECT_EQ(h.stateAt(1, x), CohState::M);
    h.drain();
    EXPECT_EQ(h.load(3, x), 8u);
}

TEST_P(CoherenceP, InvRacingPutSIsAckedFromVictimBuffer)
{
    CohHarness h(4, 1, oneLineL1, {}, proto());
    const Addr x = 0x13000;
    h.phys.writeScalar(x, 5, 8);
    h.load(2, x);
    h.load(0, x); // L1 0 and L1 2 share x
    ASSERT_EQ(h.stateAt(0, x), CohState::S);
    evictFromL1Zero(h, x, x + 64);
    // L1 1's store beats the PutS: the home still lists L1 0 as a
    // sharer, and L1 0 acks the Inv for the copy it no longer holds.
    h.store(1, x, 9);
    EXPECT_EQ(h.stats.get("cpu0.l1.invs"), 1u);
    EXPECT_EQ(h.stateAt(2, x), CohState::I);
    h.drain();
    EXPECT_EQ(h.load(3, x), 9u);
}

TEST_P(CoherenceP, RecallRacingPutIsAnsweredFromVictimBuffer)
{
    // A 2-set, 1-way L2: x and x + 128 share a set, x + 64 does not.
    DirConfig dcfg;
    dcfg.bankSizeBytes = 128;
    dcfg.assoc = 1;
    CohHarness h(4, 1, oneLineL1, dcfg, proto());
    const Addr x = 0x14000;
    h.store(0, x, 5);
    evictFromL1Zero(h, x, x + 64);
    // L1 1's fill of a conflicting block beats the PutOwned: the home
    // recalls x from L1 0, whose dirty victim copy answers, and the
    // put then waits for the recall to finish.
    h.load(1, x + 128);
    EXPECT_EQ(h.stats.get("dir0.recalls"), 1u);
    EXPECT_EQ(h.stats.get("dir0.stalls"), 1u);
    EXPECT_EQ(h.stats.get("dir0.writebacks"), 1u);
    h.drain();
    EXPECT_EQ(h.load(3, x), 5u);
}

TEST_P(CoherenceP, AccessesDuringOwnPutWaitForPutAckInOrder)
{
    CohHarness h(4, 1, oneLineL1, {}, proto());
    const Addr x = 0x15000;
    h.store(0, x, 5);
    evictFromL1Zero(h, x, x + 64);
    // L1 0's own accesses to x while its put is in flight wait for
    // the PutAck, then run in issue order.
    std::vector<std::pair<char, std::uint64_t>> done;
    const auto note = [&done](char what) {
        return [&done, what](std::uint64_t v) { done.push_back({what, v}); };
    };
    h.issue(0, x, {.kind = ScalarOp::Kind::Read}, note('l'));
    h.issue(0, x, {.kind = ScalarOp::Kind::Write, .wdata = 7}, note('s'));
    h.issue(0, x,
            {.kind = ScalarOp::Kind::Amo, .amoOp = AmoOp::Add,
             .operand = 1},
            note('a'));
    h.drain();
    const std::vector<std::pair<char, std::uint64_t>> expected{
        {'l', 5}, {'s', 0}, {'a', 7}};
    EXPECT_EQ(done, expected);
    EXPECT_EQ(h.load(0, x), 8u);
}

TEST_P(CoherenceP, InclusiveL2EvictionRecallsL1Copies)
{
    // Tiny L2: 2 sets x 2 ways; L1 large enough to hold everything.
    DirConfig dcfg;
    dcfg.bankSizeBytes = 256;
    dcfg.assoc = 2;
    CohHarness h(2, 1, {}, dcfg, proto());
    // Touch more blocks than the L2 can hold; all map through one bank.
    std::vector<Addr> addrs;
    for (int i = 0; i < 8; ++i)
        addrs.push_back(0x50000 + static_cast<Addr>(i) * 64);
    for (std::size_t i = 0; i < addrs.size(); ++i)
        h.store(0, addrs[i], 7000 + i);
    h.drain();
    EXPECT_GE(h.stats.get("dir0.recalls"), 4u);
    EXPECT_GE(h.stats.get("dir0.writebacks"), 4u);
    // Recalled dirty data must have reached DRAM and be re-fetchable.
    for (std::size_t i = 0; i < addrs.size(); ++i)
        EXPECT_EQ(h.load(1, addrs[i]), 7000u + i);
}

TEST_P(CoherenceP, RecallOfSharedCleanBlockNeedsNoWriteback)
{
    DirConfig dcfg;
    dcfg.bankSizeBytes = 256;
    dcfg.assoc = 2;
    CohHarness h(2, 1, {}, dcfg, proto());
    h.phys.writeScalar(0x60000, 11, 8);
    h.load(0, 0x60000);
    h.load(1, 0x60000); // shared clean
    const auto wb_before = h.stats.get("dir0.writebacks");
    // Evict the L2 set by touching conflicting blocks.
    for (int i = 1; i <= 4; ++i)
        h.load(0, 0x60000 + static_cast<Addr>(i) * 128);
    h.drain();
    EXPECT_EQ(h.stats.get("dir0.writebacks"), wb_before);
    // Both L1 copies must have been recalled (inclusive L2).
    EXPECT_EQ(h.stateAt(0, 0x60000), CohState::I);
    EXPECT_EQ(h.stateAt(1, 0x60000), CohState::I);
    EXPECT_EQ(h.load(1, 0x60000), 11u);
}

TEST_P(CoherenceP, DistinctBanksServeDistinctBlocks)
{
    CohHarness h(2, 4, {}, {}, proto());
    for (int i = 0; i < 8; ++i)
        h.store(0, 0x70000 + static_cast<Addr>(i) * 64,
                static_cast<Addr>(i));
    h.drain();
    // Each consecutive block maps to a different bank.
    unsigned active_banks = 0;
    for (int b = 0; b < 4; ++b) {
        if (h.stats.get("dir" + std::to_string(b) + ".getS") +
                h.stats.get("dir" + std::to_string(b) + ".getM") >
            0)
            ++active_banks;
    }
    EXPECT_EQ(active_banks, 4u);
}

TEST_P(CoherenceP, ByteAndWordAccessesWithinABlock)
{
    CohHarness h(1, 1, {}, {}, proto());
    h.store(0, 0x80000, 0x11, 1);
    h.store(0, 0x80001, 0x22, 1);
    h.store(0, 0x80002, 0x3344, 2);
    h.store(0, 0x80004, 0xdeadbeef, 4);
    EXPECT_EQ(h.load(0, 0x80000, 1), 0x11u);
    EXPECT_EQ(h.load(0, 0x80001, 1), 0x22u);
    EXPECT_EQ(h.load(0, 0x80002, 2), 0x3344u);
    EXPECT_EQ(h.load(0, 0x80004, 4), 0xdeadbeefu);
    const std::uint64_t whole = (0xdeadbeefull << 32) |
                                (0x3344ull << 16) | (0x22ull << 8) |
                                0x11ull;
    EXPECT_EQ(h.load(0, 0x80000, 8), whole);

    // 4-byte atomics beside live bytes: the Add's carry out of bit 31
    // and the CAS stay inside their word.
    h.store(0, 0x80008, 0x55, 1);
    EXPECT_EQ(h.amo(0, 0x80004, AmoOp::Add, 0x21524111, 0, 4),
              0xdeadbeefu);
    EXPECT_EQ(h.load(0, 0x80004, 4), 0u);
    EXPECT_EQ(h.amo(0, 0x80000, AmoOp::Cas, 0x33442211, 0xcafef00d, 4),
              0x33442211u);
    EXPECT_EQ(h.amo(0, 0x80000, AmoOp::Cas, 0x33442211, 0x12345678, 4),
              0xcafef00du);
    EXPECT_EQ(h.load(0, 0x80000, 8), 0xcafef00du);
    EXPECT_EQ(h.load(0, 0x80008, 1), 0x55u);
}

TEST_P(CoherenceP, MonitorSeesSingleWriter)
{
    CohHarness h(2, 2, {}, {}, proto());
    h.store(0, 0x90000, 1);
    EXPECT_EQ(h.caches.monitor()->holders(0x90000), 1u);
    h.load(1, 0x90000);
    EXPECT_EQ(h.caches.monitor()->holders(0x90000), 2u);
    h.store(1, 0x90000, 2);
    EXPECT_EQ(h.caches.monitor()->holders(0x90000), 1u);
}

INSTANTIATE_TEST_SUITE_P(Protocols, CoherenceP,
                         ::testing::ValuesIn(testProtocols()),
                         ProtocolParamName{});

/**
 * Heterogeneous per-cluster protocols: 2 CPU-cluster L1s (ids 0-1)
 * and 2 MTTOP-cluster L1s (ids 2-3) against 2 pair-mediating banks,
 * value-parametrized over all CPU x MTTOP protocol pairs. The
 * homogeneous pairs pin that the split machinery reproduces the
 * single-protocol behavior; the mixed pairs pin the directory's
 * mediation rules.
 */
class HeteroCoherenceP : public ::testing::TestWithParam<ProtocolPair>
{
  protected:
    static constexpr int kCpuL1s = 2;
    static constexpr int kMttopL1s = 2;
    static constexpr int kBanks = 2;
    static constexpr int kMttop0 = kCpuL1s; ///< first MTTOP L1 id

    Protocol cpuProto() const { return GetParam().first; }
    Protocol mttopProto() const { return GetParam().second; }

    CohHarness
    makeHarness() const
    {
        return CohHarness(
            CohHarness::Clusters{kCpuL1s, kMttopL1s, cpuProto(),
                                 mttopProto()},
            kBanks);
    }

    bool
    cpuHasE() const
    {
        return protocolPolicy(cpuProto()).hasExclusiveState();
    }

    bool
    mttopHasE() const
    {
        return protocolPolicy(mttopProto()).hasExclusiveState();
    }

    /** The pair-wise verdict: dirty sharing needs O at both ends. */
    bool
    pairDirtyShares() const
    {
        return pairAllowsDirtySharing(protocolPolicy(cpuProto()),
                                      protocolPolicy(mttopProto()));
    }

    std::uint64_t
    bankCounter(CohHarness &h, const char *name)
    {
        std::uint64_t total = 0;
        for (int b = 0; b < kBanks; ++b)
            total += h.stats.get("dir" + std::to_string(b) + "." +
                                 name);
        return total;
    }
};

TEST_P(HeteroCoherenceP, SoleCopyFillFollowsRequestorCluster)
{
    CohHarness h = makeHarness();
    // A CPU-cluster read is granted E only if the CPU protocol has
    // it; an MTTOP-cluster read of a different block likewise follows
    // the MTTOP protocol — on the same directory banks.
    h.load(0, 0x1000);
    EXPECT_EQ(h.stateAt(0, 0x1000),
              cpuHasE() ? CohState::E : CohState::S);
    h.load(kMttop0, 0x2000);
    EXPECT_EQ(h.stateAt(kMttop0, 0x2000),
              mttopHasE() ? CohState::E : CohState::S);
}

TEST_P(HeteroCoherenceP, CpuOwnerForwardToMttopFollowsPairVerdict)
{
    CohHarness h = makeHarness();
    h.store(0, 0x3000, 0x42);
    EXPECT_EQ(h.stateAt(0, 0x3000), CohState::M);

    // MTTOP-cluster read of the CPU-dirty line.
    EXPECT_EQ(h.load(kMttop0, 0x3000), 0x42u);
    EXPECT_EQ(h.stateAt(kMttop0, 0x3000), CohState::S);
    // With dirty sharing (both clusters have O) the CPU owner keeps
    // the block in O; otherwise it must downgrade to S and the data
    // goes home.
    EXPECT_EQ(h.stateAt(0, 0x3000),
              pairDirtyShares() ? CohState::O : CohState::S);

    h.drain();
    DirState st;
    L1Id owner;
    unsigned sharers;
    Directory &bank = h.bank((0x3000 >> 6) % kBanks);
    ASSERT_TRUE(bank.probe(0x3000, st, owner, sharers));
    if (pairDirtyShares()) {
        EXPECT_EQ(st, DirState::O);
        EXPECT_EQ(owner, 0);
        EXPECT_EQ(bankCounter(h, "sharingWb"), 0u);
    } else {
        EXPECT_EQ(st, DirState::S);
        EXPECT_EQ(owner, noL1);
        // The MTTOP requestor carried the dirty data home; the
        // writeback is charged to its cluster.
        EXPECT_EQ(bankCounter(h, "sharingWb"), 1u);
        EXPECT_EQ(bankCounter(h, "sharingWb.mttop"), 1u);
        EXPECT_EQ(bankCounter(h, "sharingWb.cpu"), 0u);
    }
}

TEST_P(HeteroCoherenceP, MttopOwnerDirtyDataIsNeverLost)
{
    // The reverse direction: an MTTOP owner's dirty data read by the
    // CPU cluster. Whatever the pair, a third L1 must observe the
    // stored value afterwards — when the pair forbids dirty sharing
    // the CPU requestor carries the data home even if its own
    // protocol (moesi) would not, or the L2 copy would go stale.
    CohHarness h = makeHarness();
    h.store(kMttop0, 0x4000, 0x77);
    EXPECT_EQ(h.load(0, 0x4000), 0x77u);
    h.drain();
    if (!pairDirtyShares()) {
        EXPECT_EQ(bankCounter(h, "sharingWb"), 1u);
        EXPECT_EQ(bankCounter(h, "sharingWb.cpu"), 1u);
        EXPECT_EQ(bankCounter(h, "sharingWb.mttop"), 0u);
        // The home copy is clean: the block's bytes at the L2 match.
        std::uint8_t blk[mem::blockBytes];
        Directory &bank = h.bank((0x4000 >> 6) % kBanks);
        ASSERT_TRUE(bank.funcReadBlock(0x4000, blk));
        std::uint64_t v = 0;
        std::memcpy(&v, blk, sizeof(v));
        EXPECT_EQ(v, 0x77u);
    }
    // A second CPU reader sees the value regardless of the path.
    EXPECT_EQ(h.load(1, 0x4000), 0x77u);
    // And a write from the other cluster still invalidates everyone.
    h.store(kMttop0 + 1, 0x4000, 0x88);
    EXPECT_EQ(h.load(0, 0x4000), 0x88u);
}

TEST_P(HeteroCoherenceP, MigratoryHandoffChargesTheWeakerCluster)
{
    // Token migration inside the MTTOP cluster: read-then-write
    // hand-offs between MTTOP L1s. Under a pair whose MTTOP side
    // lacks O every hand-off read pays a writeback at the home,
    // charged to the MTTOP cluster; CPU-side counters stay at zero.
    CohHarness h = makeHarness();
    const Addr addr = 0x5000;
    h.store(kMttop0, addr, 1);
    constexpr int kRounds = 4;
    for (int r = 0; r < kRounds; ++r) {
        const int dst = kMttop0 + ((r + 1) % 2);
        EXPECT_EQ(h.load(dst, addr), std::uint64_t(r + 1));
        h.store(dst, addr, r + 2);
    }
    h.drain();
    const bool mttop_pair_shares =
        protocolPolicy(mttopProto()).allowsDirtySharing();
    if (!mttop_pair_shares) {
        EXPECT_EQ(bankCounter(h, "sharingWb.mttop"),
                  std::uint64_t(kRounds));
        EXPECT_EQ(bankCounter(h, "sharingWb.cpu"), 0u);
    } else {
        EXPECT_EQ(bankCounter(h, "sharingWb"), 0u);
    }
}

TEST_P(HeteroCoherenceP, HomogeneousPairMatchesSingleProtocolStats)
{
    // For cpu == mttop pairs the cluster split must be invisible: a
    // scripted cross-cluster sharing sequence produces exactly the
    // counters of the legacy single-protocol wiring.
    if (cpuProto() != mttopProto())
        GTEST_SKIP() << "mixed pair: no single-protocol equivalent";

    auto script = [](CohHarness &h) {
        h.store(0, 0x6000, 0xa);
        h.load(2, 0x6000);
        h.store(3, 0x6000, 0xb);
        h.load(0, 0x6040);
        h.store(1, 0x6040, 0xc);
        h.load(3, 0x6040);
        h.amo(2, 0x6080, AmoOp::Add, 5);
        h.drain();
    };

    CohHarness hetero = makeHarness();
    CohHarness legacy(kCpuL1s + kMttopL1s, kBanks, {}, {},
                      cpuProto());
    script(hetero);
    script(legacy);

    for (const char *c :
         {"getS", "getM", "sharingWb", "writebacks", "fetches"}) {
        EXPECT_EQ(bankCounter(hetero, c), bankCounter(legacy, c))
            << "counter " << c;
    }
    for (int i = 0; i < kCpuL1s + kMttopL1s; ++i) {
        // Same L1 id, named by its cluster: mttop0.l1 vs cpu2.l1.
        const std::string l1 = hetero.caches.l1Name(i);
        const std::string legacy_l1 = legacy.caches.l1Name(i);
        for (const char *c : {".hits", ".misses", ".invs", ".fwds"}) {
            EXPECT_EQ(hetero.stats.get(l1 + c),
                      legacy.stats.get(legacy_l1 + c))
                << l1 << c;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(ProtocolPairs, HeteroCoherenceP,
                         ::testing::ValuesIn(testProtocolPairs()),
                         ProtocolPairParamName{});

/**
 * The cache system's contract, on one CPU and one MTTOP cluster: how
 * it numbers, places and names controllers, what each bank learns of
 * every L1, where each block is homed, and the order a functional
 * read consults the copies in.
 */
class CacheSystemContract : public ::testing::Test
{
  protected:
    static constexpr int kCpuL1s = 2;
    static constexpr int kMttopL1s = 3;
    static constexpr int kBanks = 2;

    static CohHarness
    makeHarness(Protocol cpu, Protocol mttop, DirConfig dir_cfg = {},
                SliceHashKind hash = SliceHashKind::Mod)
    {
        return CohHarness(
            CohHarness::Clusters{kCpuL1s, kMttopL1s, cpu, mttop}, kBanks,
            {}, dir_cfg, hash);
    }

    /** A block address homed at bank @p b of @p h, the @p n-th one. */
    static Addr
    blockHomedAt(CohHarness &h, int b, int n = 0)
    {
        for (Addr a = 0x100000;; a += mem::blockBytes) {
            if (&h.caches.homeOf(a) == &h.bank(b) && n-- == 0)
                return a;
        }
    }
};

TEST_F(CacheSystemContract, NumbersPlacesAndNamesEachController)
{
    CohHarness h = makeHarness(Protocol::MOESI, Protocol::MOESI);
    ASSERT_EQ(h.caches.numL1s(), kCpuL1s + kMttopL1s);
    ASSERT_EQ(h.caches.numBanks(), kBanks);
    // L1 id == NoC node, CPUs first; each cluster counts from 0.
    for (L1Id id = 0; id < h.caches.numL1s(); ++id) {
        EXPECT_EQ(h.l1(id).id(), id);
        EXPECT_EQ(h.l1(id).node(), id);
        const bool cpu = id < kCpuL1s;
        EXPECT_EQ(h.l1(id).kind(), cpu ? CoreKind::Cpu : CoreKind::Mttop);
        EXPECT_EQ(h.caches.l1Name(id),
                  cpu ? "cpu" + std::to_string(id) + ".l1"
                      : "mttop" + std::to_string(id - kCpuL1s) + ".l1");
        EXPECT_TRUE(h.stats.hasCounter(h.caches.l1Name(id) + ".hits"));
    }
    // Bank b follows the L1s on the NoC and is named dir<b>.
    for (int b = 0; b < kBanks; ++b) {
        EXPECT_EQ(h.bank(b).node(), h.caches.numL1s() + b);
        EXPECT_TRUE(h.stats.hasCounter("dir" + std::to_string(b) +
                                       ".requests"));
    }
}

TEST_F(CacheSystemContract, BanksSeeEachL1sClusterProtocolAndKind)
{
    // A mixed pair where only one side has E: each bank must grant a
    // sole-copy read the best state of the requestor's own cluster.
    for (const auto &[cpu, mttop] :
         {std::pair{Protocol::MESI, Protocol::MSI},
          std::pair{Protocol::MSI, Protocol::MOESI}}) {
        CohHarness h = makeHarness(cpu, mttop);
        for (L1Id id = 0; id < h.caches.numL1s(); ++id) {
            const bool is_cpu = id < kCpuL1s;
            const ProtocolPolicy &want =
                protocolPolicy(is_cpu ? cpu : mttop);
            EXPECT_EQ(&h.l1(id).policy(), &want);
            EXPECT_EQ(h.l1(id).kind(),
                      is_cpu ? CoreKind::Cpu : CoreKind::Mttop);
            for (int b = 0; b < kBanks; ++b) {
                const Addr a = blockHomedAt(h, b, id);
                h.load(id, a);
                EXPECT_EQ(h.stateAt(id, a), want.hasExclusiveState()
                                                ? CohState::E
                                                : CohState::S)
                    << "L1 " << id << " bank " << b;
            }
        }
    }
}

TEST_F(CacheSystemContract, HomeOfIsTheSliceHash)
{
    for (const SliceHashKind k : allSliceHashes) {
        CohHarness h = makeHarness(Protocol::MOESI, Protocol::MOESI, {}, k);
        EXPECT_EQ(&h.caches.hash(), &sliceHash(k));
        for (Addr a = 0; a < 64 * mem::blockBytes; a += mem::blockBytes) {
            const Addr block = 0x10000 + a * 37;
            const int b = sliceHash(k).bankOf(block, kBanks);
            EXPECT_EQ(&h.caches.homeOf(block), &h.bank(b))
                << sliceHashName(k) << " block 0x" << std::hex << block;
        }
        // And requests travel there: one miss, one request at its home.
        const Addr block = 0x10000 + 5 * mem::blockBytes;
        const std::string home =
            "dir" + std::to_string(sliceHash(k).bankOf(block, kBanks));
        h.load(0, block);
        EXPECT_EQ(h.stats.get(home + ".requests"), 1u) << sliceHashName(k);
    }
}

TEST_F(CacheSystemContract, FuncReadPrefersDirtyOwnerThenHomeThenMemory)
{
    auto read = [](CohHarness &h, Addr a) {
        std::uint64_t v = 0;
        h.caches.funcRead(a, &v, sizeof(v));
        return v;
    };
    // msi: a reader holds S, which is no owner state.
    CohHarness h = makeHarness(Protocol::MSI, Protocol::MSI);
    const Addr a = blockHomedAt(h, 1);
    h.phys.writeScalar(a, 1, 8);
    EXPECT_EQ(read(h, a), 1u); // memory: nothing cached
    h.load(0, a);
    h.drain();
    h.phys.writeScalar(a, 2, 8); // memory changes behind the caches
    EXPECT_EQ(read(h, a), 1u);   // the home's L2 copy wins
    h.store(kCpuL1s, a, 3);
    EXPECT_EQ(read(h, a), 3u); // the dirty owner wins
    // A write goes through memory and every copy.
    const std::uint64_t v = 9;
    h.caches.funcWrite(a, &v, sizeof(v));
    EXPECT_EQ(h.phys.readScalar(a, 8), 9u);
    EXPECT_EQ(h.load(kCpuL1s, a), 9u);
    std::uint8_t blk[mem::blockBytes];
    ASSERT_TRUE(h.bank(1).funcReadBlock(a, blk));
    std::uint64_t l2 = 0;
    std::memcpy(&l2, blk, sizeof(l2));
    EXPECT_EQ(l2, 9u);

    // A memory-resident home has no data cache and never answers.
    DirConfig at_memory;
    at_memory.memoryResident = true;
    CohHarness m = makeHarness(Protocol::MSI, Protocol::MSI, at_memory);
    const Addr b = blockHomedAt(m, 0);
    m.phys.writeScalar(b, 1, 8);
    m.load(0, b);
    m.drain();
    m.phys.writeScalar(b, 2, 8);
    EXPECT_FALSE(m.bank(0).funcReadBlock(b, blk));
    EXPECT_EQ(read(m, b), 2u);
}

TEST_F(CacheSystemContract, EachL1RecordsIntoItsKindsLatencyFamily)
{
    CohHarness h = makeHarness(Protocol::MOESI, Protocol::MOESI);
    h.load(0, 0x1000);
    EXPECT_EQ(h.stats.histogram("latency.cpu.mem").count(), 1u);
    EXPECT_EQ(h.stats.histogram("latency.mttop.mem").count(), 0u);
    h.load(kCpuL1s, 0x2000);
    h.load(kCpuL1s, 0x2000);
    EXPECT_EQ(h.stats.histogram("latency.cpu.mem").count(), 1u);
    EXPECT_EQ(h.stats.histogram("latency.mttop.mem").count(), 2u);
}

TEST(DirectoryDeathTest, MoreL1sThanSharerBitsPanics)
{
    // Sharer sets are one bit per L1: a 33rd L1 would alias L1 0.
    EXPECT_DEATH(CohHarness(Directory::maxL1s + 1, 1),
                 "33 L1s: a directory's sharer mask tracks at most 32");
}

} // namespace
} // namespace ccsvm::test
