/**
 * @file
 * Unit tests for the Process abstraction: the guest heap allocator
 * (first-fit, free-list coalescing), backdoor access across page
 * boundaries, and thread-id allocation.
 */

#include <gtest/gtest.h>

#include <cstring>

#include "system/ccsvm_machine.hh"

namespace ccsvm::runtime
{
namespace
{

struct ProcessFixture : ::testing::Test
{
    system::CcsvmMachine m;
    Process &proc = m.createProcess();
};

TEST_F(ProcessFixture, AllocationsAreDistinctAndAligned)
{
    std::set<vm::VAddr> seen;
    for (int i = 0; i < 100; ++i) {
        const vm::VAddr va = proc.gmalloc(24 + (i % 5) * 8);
        EXPECT_EQ(va % 16, 0u) << "16-byte alignment";
        EXPECT_TRUE(seen.insert(va).second) << "overlap";
    }
}

TEST_F(ProcessFixture, AllocationsDoNotOverlap)
{
    const vm::VAddr a = proc.gmalloc(100);
    const vm::VAddr b = proc.gmalloc(100);
    // 100 rounds to 112; blocks must not intersect.
    EXPECT_TRUE(a + 112 <= b || b + 112 <= a);
}

TEST_F(ProcessFixture, FreeAndReuse)
{
    const vm::VAddr a = proc.gmalloc(64);
    proc.gfree(a);
    const vm::VAddr b = proc.gmalloc(64);
    EXPECT_EQ(a, b) << "freed block should be reused first-fit";
}

TEST_F(ProcessFixture, CoalescingMergesNeighbours)
{
    const vm::VAddr a = proc.gmalloc(64);
    const vm::VAddr b = proc.gmalloc(64);
    ASSERT_EQ(b, a + 64);
    proc.gfree(a);
    proc.gfree(b);
    // A 128-byte request must fit in the merged hole.
    const vm::VAddr c = proc.gmalloc(128);
    EXPECT_EQ(c, a);
}

TEST_F(ProcessFixture, AllocatedBytesTracksLiveSet)
{
    EXPECT_EQ(proc.allocatedBytes(), 0u);
    const vm::VAddr a = proc.gmalloc(64);
    const vm::VAddr b = proc.gmalloc(32);
    EXPECT_EQ(proc.allocatedBytes(), 96u);
    proc.gfree(a);
    EXPECT_EQ(proc.allocatedBytes(), 32u);
    proc.gfree(b);
    EXPECT_EQ(proc.allocatedBytes(), 0u);
}

TEST_F(ProcessFixture, BackdoorRoundTripAcrossPages)
{
    const vm::VAddr buf = proc.gmalloc(3 * mem::pageBytes);
    std::vector<std::uint8_t> data(2 * mem::pageBytes + 100);
    for (std::size_t i = 0; i < data.size(); ++i)
        data[i] = static_cast<std::uint8_t>(i * 7);
    // Write starting mid-page so the copy spans three pages.
    proc.writeGuest(buf + 2000, data.data(), data.size());
    std::vector<std::uint8_t> out(data.size());
    proc.readGuest(buf + 2000, out.data(), out.size());
    EXPECT_EQ(std::memcmp(data.data(), out.data(), data.size()), 0);
}

TEST_F(ProcessFixture, ReadOfUnmappedMemoryIsZero)
{
    const vm::VAddr buf = proc.gmalloc(mem::pageBytes);
    EXPECT_EQ(proc.peek<std::uint64_t>(buf + 8), 0u);
}

TEST_F(ProcessFixture, BackdoorAgreesWithGuestStores)
{
    const vm::VAddr buf = proc.gmalloc(64);
    m.runMain(proc,
              [](core::ThreadContext &ctx,
                 vm::VAddr b) -> sim::GuestTask {
                  co_await ctx.store<std::uint64_t>(b, 0x1122334455ull);
              },
              buf);
    // The guest value may be dirty in an L1; funcRead must see it.
    EXPECT_EQ(proc.peek<std::uint64_t>(buf), 0x1122334455ull);
}

TEST_F(ProcessFixture, TidsAreSequential)
{
    EXPECT_EQ(proc.allocTid(), 0u);
    EXPECT_EQ(proc.allocTid(), 1u);
    EXPECT_EQ(proc.allocTid(), 2u);
}

TEST_F(ProcessFixture, ProcessesAreIsolated)
{
    Process &other = m.createProcess();
    const vm::VAddr a = proc.gmalloc(64);
    const vm::VAddr b = other.gmalloc(64);
    // Same virtual addresses, different page tables.
    EXPECT_EQ(a, b);
    proc.poke<std::uint64_t>(a, 111);
    other.poke<std::uint64_t>(b, 222);
    EXPECT_EQ(proc.peek<std::uint64_t>(a), 111u);
    EXPECT_EQ(other.peek<std::uint64_t>(b), 222u);
    EXPECT_NE(proc.cr3(), other.cr3());
}

} // namespace
} // namespace ccsvm::runtime
