/**
 * @file
 * The memory system's steady state allocates no heap block per
 * access: neither an L1 hit nor a miss, whose coherence messages are
 * values carried inline through every NoC hop, allocates, and a full
 * TLB or PTE-line filter allocates nothing to evict. This binary
 * replaces the global operator new with a counting one, so it is a
 * suite of its own. It runs on the engine's worker threads too
 * (CCSVM_SIM_THREADS), where the count covers every thread.
 *
 * Each case warms a CohHarness up with one round of accesses, so the
 * event pool, post lists and recycled map nodes reach their size, then
 * repeats the identical round and counts. Accesses go through
 * requests built once by the test: the harness's issue(op, on_done)
 * allocates a request and a callback of its own per call.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "coherence_harness.hh"
#include "vm/tlb.hh"
#include "vm/walker.hh"

namespace
{

std::atomic<std::uint64_t> allocations{0};

void *
counted(std::size_t n, std::size_t align)
{
    allocations.fetch_add(1, std::memory_order_relaxed);
    const std::size_t size = n ? n : 1;
    void *p = align <= alignof(std::max_align_t)
                  ? std::malloc(size)
                  : std::aligned_alloc(align,
                                       (size + align - 1) / align * align);
    if (!p)
        throw std::bad_alloc();
    return p;
}

} // namespace

void *operator new(std::size_t n) { return counted(n, 0); }
void *operator new[](std::size_t n) { return counted(n, 0); }
void *
operator new(std::size_t n, std::align_val_t a)
{
    return counted(n, static_cast<std::size_t>(a));
}
void *
operator new[](std::size_t n, std::align_val_t a)
{
    return counted(n, static_cast<std::size_t>(a));
}
void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }
void operator delete(void *p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void *p, std::align_val_t) noexcept { std::free(p); }
void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
void
operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

namespace ccsvm::test
{
namespace
{

/** A request the test builds once and reuses for every access. */
struct Probe
{
    MemRequest req;
    std::uint64_t value = 0;
    int completions = 0;

    /** Reset the request for @p op at @p pa. */
    MemRequest &
    aim(Addr pa, ScalarOp op)
    {
        req = {.op = op,
               .paddr = pa,
               .region = {},
               .onDone = [this](std::uint64_t v) {
                   value = v;
                   ++completions;
               }};
        return req;
    }
};

/** Issue @p op at @p pa from L1 @p id through @p p, and run the
 * memory system until every message of the access has landed. */
void
access(CohHarness &h, int id, Probe &p, Addr pa, ScalarOp op)
{
    h.issue(id, p.aim(pa, op));
    h.drain();
}

/** What one round cost: heap blocks allocated, packets sent. */
struct Cost
{
    std::uint64_t allocations;
    std::uint64_t packets;
};

/** Run @p round once to warm up, then again, counting. */
template <typename Round>
Cost
steadyCost(CohHarness &h, Round round)
{
    round();
    const std::uint64_t packets = h.stats.get("noc.packets");
    const std::uint64_t before = allocations.load();
    round();
    const std::uint64_t after = allocations.load();
    return {after - before, h.stats.get("noc.packets") - packets};
}

constexpr ScalarOp loadOp{.kind = ScalarOp::Kind::Read};

ScalarOp
storeOp(std::uint64_t v)
{
    return {.kind = ScalarOp::Kind::Write, .wdata = v};
}

TEST(Alloc, L1HitsAllocateNothing)
{
    CohHarness h(2, 1);
    Probe p;
    const Addr x = 0x1000;
    access(h, 0, p, x, storeOp(1));
    const Cost c = steadyCost(h, [&] {
        for (std::uint64_t i = 0; i < 16; ++i) {
            access(h, 0, p, x, storeOp(i));
            access(h, 0, p, x, loadOp);
            access(h, 0, p, x + 8,
                   {.kind = ScalarOp::Kind::Amo, .operand = 1});
        }
    });
    EXPECT_EQ(p.completions, 1 + 2 * 48);
    EXPECT_EQ(c.packets, 0u);
    EXPECT_EQ(c.allocations, 0u);
}

TEST(Alloc, MissesAllocateNothing)
{
    // Two L1s pass a block back and forth: forwarded reads and
    // writes, invalidations and their acks.
    CohHarness h(3, 2);
    Probe p;
    const Addr x = 0x2000;
    const Cost c = steadyCost(h, [&] {
        for (std::uint64_t i = 0; i < 8; ++i) {
            access(h, 0, p, x, storeOp(i));
            access(h, 1, p, x, loadOp);
            access(h, 2, p, x, loadOp);
            access(h, 1, p, x, storeOp(i + 1));
        }
    });
    EXPECT_GT(c.packets, 0u);
    EXPECT_EQ(c.allocations, 0u);
    access(h, 2, p, x, loadOp);
    EXPECT_EQ(p.value, 8u);
}

TEST(Alloc, EvictionsAndQueuedMissesAllocateNothing)
{
    // One one-line L1 with one MSHR: every access evicts the other
    // block (puts and their acks, victim-buffer waits), and misses
    // queue for the MSHR.
    CohHarness h(1, 1, L1Config{64, 1, 690, 1});
    Probe a, b, c;
    const Addr x = 0x3000;
    const Addr y = 0x3040;
    const Cost cost = steadyCost(h, [&] {
        for (std::uint64_t i = 0; i < 8; ++i) {
            h.issue(0, a.aim(x, storeOp(i)));
            h.issue(0, b.aim(y, loadOp));
            h.issue(0, c.aim(x, loadOp));
            h.drain();
        }
    });
    EXPECT_EQ(a.completions, 16);
    EXPECT_EQ(b.completions, 16);
    EXPECT_EQ(c.completions, 16);
    EXPECT_EQ(c.value, 7u);
    EXPECT_GT(cost.packets, 0u);
    EXPECT_EQ(cost.allocations, 0u);
}

TEST(Alloc, FullLruFiltersAllocateNothing)
{
    // Twelve pages and PTE lines cycle through a 4-entry TLB and a
    // 4-line filter, so every access misses and evicts. The evicted
    // entries' list and map nodes take the new ones.
    sim::StatRegistry stats;
    vm::Tlb tlb(stats, "tlb", 4);
    vm::PteLineFilter lines(4);
    const auto round = [&] {
        vm::TlbEntry e;
        for (Addr i = 0; i < 12; ++i) {
            if (!tlb.lookup(i << mem::pageShift, e))
                tlb.insert(i << mem::pageShift, i, true);
            if (!lines.lookup(i * mem::blockBytes))
                lines.insert(i * mem::blockBytes);
        }
    };
    round();
    const std::uint64_t before = allocations.load();
    round();
    EXPECT_EQ(allocations.load() - before, 0u);
    EXPECT_EQ(stats.get("tlb.misses"), 24u);
}

} // namespace
} // namespace ccsvm::test
