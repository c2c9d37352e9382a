/**
 * @file
 * Virtual memory unit tests: page tables, TLB, walker timing, kernel
 * fault service and TLB shootdown.
 */

#include <gtest/gtest.h>

#include "mem/dram.hh"
#include "mem/phys_mem.hh"
#include "sim/eventq.hh"
#include "sim/stats.hh"
#include "vm/kernel.hh"
#include "vm/page_table.hh"
#include "vm/tlb.hh"
#include "vm/walker.hh"

namespace ccsvm::vm
{
namespace
{

struct VmFixture : ::testing::Test
{
    sim::EventQueue eq;
    sim::StatRegistry stats;
    mem::PhysMem phys{64 * 1024 * 1024};
    FrameAllocator frames{0x100000, 32 * 1024 * 1024};
};

TEST_F(VmFixture, MapWalkTranslate)
{
    PageTable pt(phys, frames);
    const Addr frame = frames.alloc();
    pt.map(0x2000'0000, frame, true);

    WalkResult r = pt.walk(0x2000'0123);
    EXPECT_TRUE(r.present);
    EXPECT_TRUE(r.writable);
    EXPECT_EQ(r.frame, frame);
    EXPECT_EQ(r.levelsTouched, 4u);
    EXPECT_EQ(pt.translate(0x2000'0123), frame + 0x123);
}

TEST_F(VmFixture, UnmappedWalkStopsEarly)
{
    PageTable pt(phys, frames);
    WalkResult r = pt.walk(0x4000'0000);
    EXPECT_FALSE(r.present);
    // The root is allocated but empty: the walk dies at level 0.
    EXPECT_EQ(r.levelsTouched, 1u);
}

TEST_F(VmFixture, ReadOnlyMapping)
{
    PageTable pt(phys, frames);
    pt.map(0x2000'0000, frames.alloc(), false);
    WalkResult r = pt.walk(0x2000'0000);
    EXPECT_TRUE(r.present);
    EXPECT_FALSE(r.writable);
}

TEST_F(VmFixture, UnmapRemovesTranslation)
{
    PageTable pt(phys, frames);
    pt.map(0x2000'0000, frames.alloc(), true);
    EXPECT_TRUE(pt.unmap(0x2000'0000));
    EXPECT_FALSE(pt.walk(0x2000'0000).present);
    EXPECT_FALSE(pt.unmap(0x2000'0000)) << "double unmap";
}

TEST_F(VmFixture, NeighbouringPagesAreIndependent)
{
    PageTable pt(phys, frames);
    const Addr f1 = frames.alloc(), f2 = frames.alloc();
    pt.map(0x2000'0000, f1, true);
    pt.map(0x2000'1000, f2, true);
    EXPECT_EQ(pt.translate(0x2000'0000), f1);
    EXPECT_EQ(pt.translate(0x2000'1000), f2);
    pt.unmap(0x2000'0000);
    EXPECT_FALSE(pt.walk(0x2000'0000).present);
    EXPECT_TRUE(pt.walk(0x2000'1000).present);
}

TEST_F(VmFixture, PageTablesLiveInPhysicalMemory)
{
    PageTable pt(phys, frames);
    pt.map(0x2000'0000, frames.alloc(), true);
    // The root PTE for this VA must be a valid entry in PhysMem.
    const Addr root_pte =
        pt.root() + PageTable::index(0x2000'0000, 0) * pteSize;
    EXPECT_TRUE(phys.readScalar(root_pte, 8) & pteValid);
}

TEST_F(VmFixture, SparseHighAddressesWork)
{
    PageTable pt(phys, frames);
    const VAddr high = 0x0000'7fff'ffff'f000ull;
    const Addr f = frames.alloc();
    pt.map(high, f, true);
    EXPECT_EQ(pt.translate(high + 0xff), f + 0xff);
}

TEST_F(VmFixture, TlbHitMissAndLru)
{
    Tlb tlb(stats, "tlb", 4);
    TlbEntry e;
    EXPECT_FALSE(tlb.lookup(0x1000, e));
    tlb.insert(0x1000, 0xa000, true);
    ASSERT_TRUE(tlb.lookup(0x1000, e));
    EXPECT_EQ(e.frame, 0xa000u);
    EXPECT_TRUE(e.writable);

    // Fill to capacity, then add one more: LRU (0x1000 is most
    // recently used thanks to the lookup) must survive.
    tlb.insert(0x2000, 0xb000, true);
    tlb.insert(0x3000, 0xc000, true);
    tlb.insert(0x4000, 0xd000, true);
    ASSERT_TRUE(tlb.lookup(0x1000, e));
    tlb.insert(0x5000, 0xe000, true);
    EXPECT_EQ(tlb.size(), 4u);
    EXPECT_TRUE(tlb.lookup(0x1000, e)) << "MRU evicted";
}

TEST_F(VmFixture, TlbExactLruOrderUnderChurn)
{
    // The LRU is a recency list + map (constant time), not a scan;
    // this pins the exact eviction order across interleaved hits,
    // re-inserts and misses so any future structure change must keep
    // true-LRU behavior.
    Tlb tlb(stats, "lrutlb", 3);
    TlbEntry e;
    tlb.insert(0x1000, 0xa000, true);
    tlb.insert(0x2000, 0xb000, true);
    tlb.insert(0x3000, 0xc000, true);
    // Recency now 3,2,1. Touch 1 -> 1,3,2; re-insert 2 -> 2,1,3.
    ASSERT_TRUE(tlb.lookup(0x1000, e));
    tlb.insert(0x2000, 0xb100, true);
    // Next two inserts evict 3 then... 1 (2 was freshened).
    tlb.insert(0x4000, 0xd000, true);
    EXPECT_FALSE(tlb.lookup(0x3000, e));
    tlb.insert(0x5000, 0xe000, true);
    EXPECT_FALSE(tlb.lookup(0x1000, e));
    ASSERT_TRUE(tlb.lookup(0x2000, e));
    EXPECT_EQ(e.frame, 0xb100u) << "re-insert must update in place";
    EXPECT_EQ(tlb.size(), 3u);
}

TEST_F(VmFixture, PteLineFilterExactLruOrder)
{
    // The walkers' PTE-line filters are true LRU like the TLB: a
    // lookup hit and a re-insert each make a line the most recent,
    // and a new line into a full filter evicts the least recent.
    PteLineFilter lines(3);
    lines.insert(0x40);
    lines.insert(0x80);
    lines.insert(0xc0);
    // Recency now c0,80,40. Touch 40 -> 40,c0,80; re-insert 80 ->
    // 80,40,c0. The next two inserts evict c0, then 40.
    ASSERT_TRUE(lines.lookup(0x40));
    lines.insert(0x80);
    lines.insert(0x100);
    EXPECT_FALSE(lines.lookup(0xc0));
    lines.insert(0x140);
    EXPECT_FALSE(lines.lookup(0x40));
    EXPECT_TRUE(lines.lookup(0x80));
    EXPECT_TRUE(lines.lookup(0x100));
    EXPECT_TRUE(lines.lookup(0x140));
}

TEST_F(VmFixture, ShootdownPolicyCountsFlushes)
{
    // The documented TLB-coherence policy (tlb.hh, paper Sec. 3.2.1):
    // a CPU-initiated shootdown flushes MTTOP TLBs wholesale (one
    // whole-TLB flush each, counted) and invalidates only the
    // affected VPN at CPU TLBs (no flush counted).
    Kernel kernel(eq, stats, phys, {}, 0x100000, 32 * 1024 * 1024);
    auto as = kernel.createAddressSpace();

    Tlb cpu0(stats, "sd.cpu0"), cpu1(stats, "sd.cpu1");
    Tlb mt0(stats, "sd.mt0"), mt1(stats, "sd.mt1");
    kernel.registerCpuTlb(&cpu0);
    kernel.registerCpuTlb(&cpu1);
    kernel.registerMttopTlb(&mt0);
    kernel.registerMttopTlb(&mt1);

    bool faulted = false;
    kernel.handlePageFault(*as, 0x2000'0000, [&] { faulted = true; });
    eq.run();
    ASSERT_TRUE(faulted);
    const Addr frame = as->pageTable().walk(0x2000'0000).frame;
    for (Tlb *t : {&cpu0, &cpu1, &mt0, &mt1}) {
        t->insert(0x2000'0000, frame, true);
        t->insert(0x3000'0000, 0xbeef000, true);
    }

    bool done = false;
    kernel.unmapAndShootdown(*as, 0x2000'0000, [&] { done = true; });
    eq.run();
    ASSERT_TRUE(done);

    // CPU TLBs: precise invalidation, unrelated entries survive, no
    // whole-TLB flush counted.
    TlbEntry e;
    for (Tlb *t : {&cpu0, &cpu1}) {
        EXPECT_FALSE(t->lookup(0x2000'0000, e));
        EXPECT_TRUE(t->lookup(0x3000'0000, e));
    }
    EXPECT_EQ(stats.get("sd.cpu0.flushes"), 0u);
    EXPECT_EQ(stats.get("sd.cpu1.flushes"), 0u);
    // MTTOP TLBs: conservative full flush, everything gone, one
    // flush counted per TLB per shootdown.
    EXPECT_EQ(mt0.size(), 0u);
    EXPECT_EQ(mt1.size(), 0u);
    EXPECT_EQ(stats.get("sd.mt0.flushes"), 1u);
    EXPECT_EQ(stats.get("sd.mt1.flushes"), 1u);
    EXPECT_EQ(mt0.flushes(), 1u);

    // A second shootdown accumulates MTTOP flushes.
    bool done2 = false;
    kernel.unmapAndShootdown(*as, 0x3000'0000, [&] { done2 = true; });
    eq.run();
    ASSERT_TRUE(done2);
    EXPECT_EQ(stats.get("sd.mt0.flushes"), 2u);
    EXPECT_EQ(stats.get("sd.mt1.flushes"), 2u);
    EXPECT_EQ(stats.get("sd.cpu0.flushes"), 0u);
    EXPECT_EQ(stats.get("kernel.shootdowns"), 2u);
}

TEST_F(VmFixture, TlbInvalidateAndFlush)
{
    Tlb tlb(stats, "tlb");
    tlb.insert(0x1000, 0xa000, true);
    tlb.insert(0x2000, 0xb000, false);
    tlb.invalidate(0x1234); // same page as 0x1000
    TlbEntry e;
    EXPECT_FALSE(tlb.lookup(0x1000, e));
    EXPECT_TRUE(tlb.lookup(0x2000, e));
    EXPECT_FALSE(e.writable);
    tlb.flushAll();
    EXPECT_EQ(tlb.size(), 0u);
    EXPECT_EQ(stats.get("tlb.flushes"), 1u);
}

TEST_F(VmFixture, WalkerChargesDramForColdWalks)
{
    mem::DramCtrl dram(eq, stats, "dram", {});
    Walker walker(eq, stats, "walker", {}, dram);
    PageTable pt(phys, frames);
    pt.map(0x2000'0000, frames.alloc(), true);

    bool done = false;
    Tick done_at = 0;
    walker.walk(pt, 0x2000'0000, [&](WalkResult r) {
        EXPECT_TRUE(r.present);
        done = true;
        done_at = eq.now();
    });
    eq.run();
    ASSERT_TRUE(done);
    // Four dependent off-chip PTE reads at ~105 ns each.
    EXPECT_GE(done_at, 4 * 100 * tickNs);
    EXPECT_EQ(stats.get("walker.pwcMisses"), 4u);
    EXPECT_EQ(stats.get("dram.reads"), 4u);
}

TEST_F(VmFixture, WalkCacheAcceleratesRepeatWalks)
{
    mem::DramCtrl dram(eq, stats, "dram", {});
    Walker walker(eq, stats, "walker", {}, dram);
    PageTable pt(phys, frames);
    // Two VAs in the same region share upper-level PTEs.
    pt.map(0x2000'0000, frames.alloc(), true);
    pt.map(0x2000'1000, frames.alloc(), true);

    bool done = false;
    walker.walk(pt, 0x2000'0000, [&](WalkResult) { done = true; });
    eq.run();
    ASSERT_TRUE(done);

    const auto misses_before = stats.get("walker.pwcMisses");
    done = false;
    Tick start = eq.now(), done_at = 0;
    walker.walk(pt, 0x2000'1000, [&](WalkResult) {
        done = true;
        done_at = eq.now();
    });
    eq.run();
    ASSERT_TRUE(done);
    // Upper levels hit the PWC; only the leaf line may miss.
    EXPECT_LE(stats.get("walker.pwcMisses") - misses_before, 1u);
    EXPECT_LT(done_at - start, 150 * tickNs);
}

TEST_F(VmFixture, KernelServicesFaultsSerially)
{
    KernelConfig kcfg;
    Kernel kernel(eq, stats, phys, kcfg, 0x100000, 32 * 1024 * 1024);
    auto as = kernel.createAddressSpace();

    std::vector<Tick> done_at;
    kernel.handlePageFault(*as, 0x2000'0000,
                           [&] { done_at.push_back(eq.now()); });
    kernel.handlePageFault(*as, 0x2000'1000,
                           [&] { done_at.push_back(eq.now()); });
    eq.run();
    ASSERT_EQ(done_at.size(), 2u);
    // Serialized by the kernel lock: second completes one full
    // handler latency after the first.
    EXPECT_EQ(done_at[1] - done_at[0], kcfg.pageFaultLatency);
    EXPECT_TRUE(as->pageTable().walk(0x2000'0000).present);
    EXPECT_TRUE(as->pageTable().walk(0x2000'1000).present);
    EXPECT_EQ(kernel.pageFaults(), 2u);
}

TEST_F(VmFixture, DuplicateFaultOnSamePageAllocatesOnce)
{
    Kernel kernel(eq, stats, phys, {}, 0x100000, 32 * 1024 * 1024);
    auto as = kernel.createAddressSpace();
    int done = 0;
    kernel.handlePageFault(*as, 0x2000'0000, [&] { ++done; });
    kernel.handlePageFault(*as, 0x2000'0008, [&] { ++done; });
    eq.run();
    EXPECT_EQ(done, 2);
    // Only one fault allocated; the second found the page present.
    EXPECT_EQ(kernel.pageFaults(), 1u);
}

TEST_F(VmFixture, ShootdownFlushesMttopTlbsAndInvalidatesCpuTlbs)
{
    Kernel kernel(eq, stats, phys, {}, 0x100000, 32 * 1024 * 1024);
    auto as = kernel.createAddressSpace();

    Tlb cpu_tlb(stats, "cputlb");
    Tlb mttop_tlb(stats, "mtlb");
    kernel.registerCpuTlb(&cpu_tlb);
    kernel.registerMttopTlb(&mttop_tlb);

    bool faulted = false;
    kernel.handlePageFault(*as, 0x2000'0000, [&] { faulted = true; });
    eq.run();
    ASSERT_TRUE(faulted);
    const Addr frame = as->pageTable().walk(0x2000'0000).frame;
    cpu_tlb.insert(0x2000'0000, frame, true);
    cpu_tlb.insert(0x3000'0000, 0xbeef000, true);
    mttop_tlb.insert(0x2000'0000, frame, true);
    mttop_tlb.insert(0x3000'0000, 0xbeef000, true);

    bool done = false;
    kernel.unmapAndShootdown(*as, 0x2000'0000, [&] { done = true; });
    eq.run();
    ASSERT_TRUE(done);
    EXPECT_FALSE(as->pageTable().walk(0x2000'0000).present);

    TlbEntry e;
    // CPU TLB: precise invalidation, other entries survive.
    EXPECT_FALSE(cpu_tlb.lookup(0x2000'0000, e));
    EXPECT_TRUE(cpu_tlb.lookup(0x3000'0000, e));
    // MTTOP TLB: conservative full flush (paper Sec. 3.2.1).
    EXPECT_EQ(mttop_tlb.size(), 0u);
}

TEST_F(VmFixture, AddressSpaceReserveGrowsHeap)
{
    Kernel kernel(eq, stats, phys, {}, 0x100000, 32 * 1024 * 1024);
    auto as = kernel.createAddressSpace();
    const VAddr a = as->reserve(100);
    const VAddr b = as->reserve(8192);
    const VAddr c = as->reserve(1);
    EXPECT_EQ(a, AddressLayout::heapBase);
    EXPECT_EQ(b, a + mem::pageBytes);
    EXPECT_EQ(c, b + 2 * mem::pageBytes);
}

TEST_F(VmFixture, FrameAllocatorRecyclesFreedFrames)
{
    FrameAllocator fa(0x100000, 3 * mem::pageBytes);
    const Addr f1 = fa.alloc();
    const Addr f2 = fa.alloc();
    EXPECT_NE(f1, f2);
    fa.free(f1);
    EXPECT_EQ(fa.alloc(), f1);
    fa.alloc();
    // Pool of 3 frames is now exhausted -> next alloc would panic
    // (not tested: panics abort).
}

} // namespace
} // namespace ccsvm::vm
