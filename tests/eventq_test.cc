/**
 * @file
 * Unit tests for the event queue and clock domains.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <memory>
#include <set>
#include <tuple>
#include <vector>

#include "base/random.hh"
#include "sim/clock.hh"
#include "sim/eventq.hh"

namespace ccsvm::sim
{
namespace
{

TEST(EventQueue, RunsInTimeOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(30, [&] { order.push_back(3); });
    eq.schedule(10, [&] { order.push_back(1); });
    eq.schedule(20, [&] { order.push_back(2); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.now(), 30u);
}

TEST(EventQueue, SameTickOrderedByPriorityThenSeq)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(5, [&] { order.push_back(2); }, 0);
    eq.schedule(5, [&] { order.push_back(1); }, -1);
    eq.schedule(5, [&] { order.push_back(3); }, 0);
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, EventsMayScheduleMoreEvents)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(1, [&] {
        ++fired;
        eq.schedule(2, [&] {
            ++fired;
            eq.scheduleIn(3, [&] { ++fired; });
        });
    });
    eq.run();
    EXPECT_EQ(fired, 3);
    EXPECT_EQ(eq.now(), 5u);
    EXPECT_EQ(eq.eventsExecuted(), 3u);
}

TEST(EventQueue, SameTickChurnKeepsDeterministicOrder)
{
    // A callback that schedules while its tick drains: one same-tick
    // event joins the pending (7, prioDefault) FIFO behind event 2,
    // another opens a new (7, prioCpu) key, and the 64 follow-ups
    // grow the callback pool after the running callback has left its
    // slot. (priority, seq) order must stay exact throughout.
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(7, [&] {
        order.push_back(1);
        // Same-tick follow-ups at mixed priorities, scheduled while
        // the tick is already draining.
        eq.schedule(7, [&] { order.push_back(4); }, prioCpu);
        eq.schedule(7, [&] { order.push_back(3); }, prioDefault);
        for (int i = 0; i < 64; ++i)
            eq.schedule(8, [&] { order.push_back(5); });
    }, prioNetwork);
    eq.schedule(7, [&] { order.push_back(2); }, prioDefault);
    eq.run();
    ASSERT_EQ(order.size(), 4u + 64u);
    EXPECT_EQ(order[0], 1);
    EXPECT_EQ(order[1], 2); // earlier seq at equal priority
    EXPECT_EQ(order[2], 3);
    EXPECT_EQ(order[3], 4);
    EXPECT_EQ(eq.now(), 8u);
    EXPECT_EQ(eq.eventsExecuted(), 68u);
}

/**
 * One round of the randomized order test, run against either the real
 * queue or the reference model. Event ids are handed out in schedule
 * order, and what an event schedules when it runs depends only on its
 * id, its priority and the time it runs at. So two runs print the
 * same id sequence exactly when they execute the same order.
 */
struct OrderRound
{
    static constexpr int kMaxEvents = 400;
    static constexpr Tick kGrid = 10;

    std::uint64_t seed = 0;
    int nextId = 0;
    std::vector<int> order;

    /** Run event @p id at @p now: log it and spawn its children. */
    template <typename Push>
    void
    fire(int id, Tick now, int prio, Push push)
    {
        order.push_back(id);
        if (nextId >= kMaxEvents)
            return;
        Random r(seed * 0x9e3779b97f4a7c15ull + id);
        for (int n = static_cast<int>(r.below(3)); n > 0; --n) {
            switch (r.below(4)) {
              case 0: // same tick, runs before the rest of this key
                push(now, prio - 1 - static_cast<int>(r.below(4)));
                break;
              case 1: // same key: joins the back of its FIFO
                push(now, prio);
                break;
              case 2: // same tick, after this key
                push(now, prio + 1 + static_cast<int>(r.below(4)));
                break;
              default: // a shared future tick
                push((now / kGrid + 1 + r.below(3)) * kGrid,
                     kPrios[r.below(std::size(kPrios))]);
                break;
            }
        }
    }

    static constexpr int kPrios[] = {prioNetwork, prioDefault,
                                     prioDefault, prioCpu, prioStats};
};

/** The real queue under test. */
struct QueueRun : OrderRound
{
    EventQueue eq;

    void
    push(Tick when, int prio)
    {
        const int id = nextId++;
        eq.schedule(when, [this, id, prio] {
            fire(id, eq.now(), prio,
                 [this](Tick w, int p) { push(w, p); });
        }, prio);
    }
};

/** Reference model: pending events ordered by (when, priority, seq). */
struct ModelRun : OrderRound
{
    std::set<std::tuple<Tick, int, std::uint64_t, int>> pending;
    std::uint64_t seq = 0;
    Tick now = 0;

    void
    push(Tick when, int prio)
    {
        pending.emplace(when, prio, seq++, nextId++);
    }

    /** Run every event whose time satisfies @p in, in order. */
    template <typename In>
    void
    drain(In in)
    {
        while (!pending.empty() && in(std::get<0>(*pending.begin()))) {
            const auto [when, prio, s, id] = *pending.begin();
            pending.erase(pending.begin());
            now = when;
            fire(id, now, prio, [this](Tick w, int p) { push(w, p); });
        }
    }

    Tick
    peekWhen() const
    {
        return pending.empty() ? EventQueue::maxTick
                               : std::get<0>(*pending.begin());
    }
};

TEST(EventQueue, RandomScheduleMatchesReferenceOrder)
{
    for (std::uint64_t round = 0; round < 1000; ++round) {
        SCOPED_TRACE(::testing::Message() << "round " << round);
        Random rng(round);
        QueueRun q;
        ModelRun m;
        q.seed = m.seed = round;

        // Bursts on a few shared ticks at mixed priorities, scheduled
        // from the host side: at the start and after every cut.
        auto burst = [&] {
            const Tick base = m.now;
            for (int t = 1 + static_cast<int>(rng.below(3)); t > 0; --t) {
                const Tick when = (base / OrderRound::kGrid +
                                   rng.below(3)) * OrderRound::kGrid;
                const Tick at = std::max(when, base);
                for (int n = 1 + static_cast<int>(rng.below(24)); n > 0;
                     --n) {
                    const int prio = OrderRound::kPrios[rng.below(
                        std::size(OrderRound::kPrios))];
                    q.push(at, prio);
                    m.push(at, prio);
                }
            }
        };
        burst();
        for (int cut = 0; cut < 4; ++cut) {
            const Tick edge = m.now + rng.below(4 * OrderRound::kGrid);
            if (rng.below(2)) {
                q.eq.run(edge);
                m.drain([&](Tick w) { return w <= edge; });
            } else {
                q.eq.runWindow(edge);
                m.drain([&](Tick w) { return w < edge; });
            }
            ASSERT_EQ(q.order, m.order) << "after cut " << cut;
            ASSERT_EQ(q.eq.now(), m.now);
            ASSERT_EQ(q.eq.size(), m.pending.size());
            ASSERT_EQ(q.eq.peekWhen(), m.peekWhen());
            burst();
        }
        q.eq.run();
        m.drain([](Tick) { return true; });
        ASSERT_EQ(q.order, m.order);
        ASSERT_TRUE(q.eq.empty());
        ASSERT_EQ(q.eq.size(), 0u);
        ASSERT_EQ(q.eq.eventsExecuted(), m.order.size());
    }
}

/** Counts the destructions of the live instance, not of the
 * moved-from shells a relocation leaves behind. */
struct DtorCounter
{
    int *dtors;

    explicit DtorCounter(int *d) : dtors(d) {}
    DtorCounter(DtorCounter &&o) noexcept : dtors(o.dtors)
    {
        o.dtors = nullptr;
    }
    DtorCounter(const DtorCounter &) = delete;
    ~DtorCounter()
    {
        if (dtors)
            ++*dtors;
    }
};

TEST(EventQueue, CallbackLifetime)
{
    std::array<unsigned char, 256> big{};
    for (std::size_t i = 0; i < big.size(); ++i)
        big[i] = static_cast<unsigned char>(i);
    const int bigSum = 255 * 256 / 2;
    static_assert(sizeof(big) > EventQueue::Callback::inlineBytes);

    // Run, inline and heap-allocated: destroyed once, right after.
    {
        EventQueue eq;
        int dtors = 0, bigDtors = 0, runs = 0, sum = 0;
        eq.schedule(1, [c = DtorCounter(&dtors), &runs, &dtors] {
            EXPECT_EQ(dtors, 0);
            ++runs;
        });
        eq.schedule(1, [c = DtorCounter(&bigDtors), big, &sum] {
            for (const unsigned char b : big)
                sum += b;
        });
        eq.run();
        EXPECT_EQ(runs, 1);
        EXPECT_EQ(dtors, 1);
        EXPECT_EQ(sum, bigSum);
        EXPECT_EQ(bigDtors, 1);

        // The freed slots are reused; each new capture still dies
        // exactly once.
        eq.schedule(2, [c = DtorCounter(&dtors)] {});
        eq.run();
        EXPECT_EQ(dtors, 2);
    }

    // Pending when the queue dies: destroyed once, never run.
    int dtors = 0, bigDtors = 0, runs = 0;
    {
        EventQueue eq;
        eq.schedule(5, [c = DtorCounter(&dtors), &runs] { ++runs; });
        eq.schedule(6, [c = DtorCounter(&bigDtors), big, &runs] {
            runs += big[1];
        });
        EXPECT_EQ(dtors, 0);
        EXPECT_EQ(bigDtors, 0);
    }
    EXPECT_EQ(runs, 0);
    EXPECT_EQ(dtors, 1);
    EXPECT_EQ(bigDtors, 1);

    // A move-only capture.
    EventQueue eq;
    int got = 0;
    auto p = std::make_unique<int>(42);
    eq.schedule(3, [p = std::move(p), &got] { got = *p; });
    eq.run();
    EXPECT_EQ(got, 42);
}

TEST(EventQueue, RunRespectsLimit)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(10, [&] { ++fired; });
    eq.schedule(20, [&] { ++fired; });
    eq.run(15);
    EXPECT_EQ(fired, 1);
    EXPECT_FALSE(eq.empty());
    eq.run();
    EXPECT_EQ(fired, 2);
}

TEST(EventQueue, RunUntilPredicate)
{
    EventQueue eq;
    int x = 0;
    for (Tick t = 1; t <= 10; ++t)
        eq.schedule(t, [&] { ++x; });
    bool ok = eq.runUntil([&] { return x == 4; });
    EXPECT_TRUE(ok);
    EXPECT_EQ(eq.now(), 4u);
    EXPECT_FALSE(eq.empty());
}

TEST(EventQueue, RunUntilReturnsFalseWhenDrained)
{
    EventQueue eq;
    eq.schedule(1, [] {});
    bool ok = eq.runUntil([] { return false; });
    EXPECT_FALSE(ok);
}

TEST(ClockDomain, EdgeAlignment)
{
    EventQueue eq;
    ClockDomain clk(eq, 345); // 2.9 GHz CPU clock
    // At time 0, the aligned edge is 0.
    EXPECT_EQ(clk.clockEdge(), 0u);
    eq.schedule(1, [] {});
    eq.run();
    EXPECT_EQ(eq.now(), 1u);
    EXPECT_EQ(clk.clockEdge(), 345u);
    EXPECT_EQ(clk.clockEdge(2), 345u + 2 * 345u);
}

TEST(ClockDomain, Conversions)
{
    EventQueue eq;
    ClockDomain clk(eq, 1667); // 600 MHz MTTOP clock
    EXPECT_EQ(clk.cyclesToTicks(3), 5001u);
    EXPECT_EQ(clk.ticksToCycles(1667), 1u);
    EXPECT_EQ(clk.ticksToCycles(1668), 2u);
}

TEST(ClockDomain, MixedDomainsInterleave)
{
    EventQueue eq;
    ClockDomain cpu(eq, 345);
    ClockDomain mttop(eq, 1667);
    std::vector<char> order;
    // One CPU event per CPU cycle and one MTTOP event per MTTOP cycle;
    // the CPU must fire ~4.8x as often.
    for (Cycles c = 1; c <= 48; ++c)
        eq.schedule(cpu.cyclesToTicks(c), [&] { order.push_back('c'); });
    for (Cycles c = 1; c <= 10; ++c)
        eq.schedule(mttop.cyclesToTicks(c),
                    [&] { order.push_back('m'); });
    eq.run();
    EXPECT_EQ(std::count(order.begin(), order.end(), 'c'), 48);
    EXPECT_EQ(std::count(order.begin(), order.end(), 'm'), 10);
    // The last event overall is the 10th MTTOP tick (16670 > 16560).
    EXPECT_EQ(order.back(), 'm');
}

} // namespace
} // namespace ccsvm::sim
