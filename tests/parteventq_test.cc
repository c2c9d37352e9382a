/**
 * @file
 * PartEngine tests: conservative window invariants, deterministic
 * cross-partition ordering, the callIn/replyFrom routing contract,
 * thread-count-independent statistics
 * (per-partition stat slots written from every partition at once),
 * the window hand-off (owner map, parked workers), and the
 * worker-count resolution helpers. The suite carries the
 * "concurrent" ctest label so the CI ThreadSanitizer lane exercises
 * the multi-threaded window paths.
 */

#include <gtest/gtest.h>

#include <sys/resource.h>

#include <chrono>
#include <cstdlib>
#include <functional>
#include <limits>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "runtime/xthreads.hh"
#include "sim/parteventq.hh"
#include "sim/stats.hh"
#include "sim/sweep.hh"
#include "system/ccsvm_machine.hh"

namespace ccsvm::sim
{
namespace
{

TEST(PartEngine, RejectsDegenerateConfigs)
{
    // Lookahead 0 would make every window empty-width: no horizon to
    // run ahead of, so construction must refuse it outright.
    EXPECT_THROW(PartEngine(2, 0), std::invalid_argument);
    EXPECT_THROW(PartEngine(0, 10), std::invalid_argument);
}

TEST(PartEngine, RunsPartitionsWithEmptyOnesIdle)
{
    // Partition 1 never holds an event; the window loop must skip it
    // without stalling and still drain the others.
    PartEngine eng(3, 10);
    std::vector<int> order;
    eng.queue(0).schedule(5, [&] { order.push_back(1); });
    eng.queue(2).schedule(25, [&] { order.push_back(2); });
    eng.queue(0).schedule(40, [&] { order.push_back(3); });
    eng.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_TRUE(eng.empty());
    EXPECT_EQ(eng.eventsExecuted(), 3u);
    EXPECT_EQ(eng.now(), 40u);
}

TEST(PartEngine, RunRespectsLimitAndResumes)
{
    PartEngine eng(2, 10);
    int fired = 0;
    eng.queue(0).schedule(5, [&] { ++fired; });
    eng.queue(1).schedule(100, [&] { ++fired; });
    eng.run(50);
    EXPECT_EQ(fired, 1);
    EXPECT_FALSE(eng.empty());
    eng.run();
    EXPECT_EQ(fired, 2);
    EXPECT_TRUE(eng.empty());
}

TEST(PartEngine, CrossPartitionPostDelivers)
{
    PartEngine eng(2, 10);
    bool delivered = false;
    Tick arrival = 0;
    eng.queue(1).schedule(5, [&] {
        postToPartition(eng.queue(0), [&] {
            delivered = true;
            arrival = eng.queue(0).now();
        });
    });
    eng.run();
    EXPECT_TRUE(delivered);
    // Earliest conservative arrival: source now + lookahead.
    EXPECT_EQ(arrival, 15u);
    EXPECT_TRUE(eng.empty());
}

TEST(PartEngine, SameTickCrossOrderIsDeterministic)
{
    // Three source partitions race posts at the same destination tick.
    // The barrier drain must order them by (priority, source
    // partition, post order) regardless of which host thread ran
    // which window.
    for (const int threads : {1, 2, 4}) {
        PartEngine eng(4, 10, threads);
        std::vector<std::string> order;
        auto mark = [&](const char *tag) {
            return [&order, tag] { order.push_back(tag); };
        };
        eng.queue(1).schedule(5, [&, mark] {
            eng.post(eng.queue(0), 20, mark("p1a"));
            eng.post(eng.queue(0), 20, mark("p1b"));
        });
        eng.queue(2).schedule(5, [&, mark] {
            eng.post(eng.queue(0), 20, mark("p2a"));
            eng.post(eng.queue(0), 20, mark("p2b"));
        });
        eng.queue(3).schedule(5, [&, mark] {
            // Urgent message: beats every same-tick default-priority
            // post, from any source partition.
            eng.post(eng.queue(0), 20, mark("p3a"), prioDefault - 1);
            eng.post(eng.queue(0), 20, mark("p3b"));
        });
        eng.run();
        // Priority before source: the urgent p3a message leads, then
        // default-priority posts by (source partition, post order).
        EXPECT_EQ(order,
                  (std::vector<std::string>{"p3a", "p1a", "p1b",
                                            "p2a", "p2b", "p3b"}))
            << "threads=" << threads;
    }

    // Seeded input: in each of two rounds, every one of seven
    // partitions posts 50 events from one event, each to one of the
    // six others, on keys drawn from 2 ticks x 3 priorities: a
    // source's post list interleaves its destinations. Every partition
    // already holds local events on the same keys. The second round
    // runs after a later barrier, so a post left over from the first
    // one shows up as a duplicated or missing event. The expected
    // order at each destination is the commit rule spelled out: per
    // (when, priority) key, its local events in schedule order, then
    // the posts by (source partition, post order).
    constexpr int kParts = 7, kPosts = 50, kLocals = 12, kKeys = 6;
    constexpr Tick kPostAt[2] = {5, 35}; // sources post at this tick
    constexpr Tick kKeyAt[2] = {20, 50}; // to this tick and the next
    auto keyWhen = [&](int round, int k) {
        return kKeyAt[round] + static_cast<Tick>(k / 3);
    };
    auto keyPrio = [](int k) { return k % 3 - 1; };
    // Log entry of round r's event i from source s (kParts: local).
    auto id = [](int r, int s, int i) {
        return r * 100000 + s * 1000 + i;
    };
    struct Post
    {
        int dest, key;
    };
    std::mt19937 rng(20261018);
    std::vector<int> localKeys[2][kParts];
    std::vector<Post> posts[2][kParts];
    for (int r = 0; r < 2; ++r)
        for (int p = 0; p < kParts; ++p) {
            for (int i = 0; i < kLocals; ++i)
                localKeys[r][p].push_back(static_cast<int>(rng() % kKeys));
            for (int i = 0; i < kPosts; ++i) {
                // Any partition but p.
                const int skip = 1 + static_cast<int>(rng() % (kParts - 1));
                posts[r][p].push_back(
                    {(p + skip) % kParts, static_cast<int>(rng() % kKeys)});
            }
        }
    std::vector<std::vector<int>> expect(kParts);
    for (int d = 0; d < kParts; ++d)
        for (int r = 0; r < 2; ++r)
            for (int k = 0; k < kKeys; ++k) {
                for (int i = 0; i < kLocals; ++i)
                    if (localKeys[r][d][i] == k)
                        expect[d].push_back(id(r, kParts, i));
                for (int s = 0; s < kParts; ++s)
                    for (int i = 0; i < kPosts; ++i)
                        if (posts[r][s][i].dest == d &&
                            posts[r][s][i].key == k)
                            expect[d].push_back(id(r, s, i));
            }
    std::size_t expected = 0;
    for (const auto &e : expect)
        expected += e.size();
    ASSERT_EQ(expected, 2u * kParts * (kLocals + kPosts));

    for (const int threads : {1, 2, 4}) {
        PartEngine eng(kParts, 10, threads);
        // log[d] is written only by events running in partition d.
        std::vector<std::vector<int>> log(kParts);
        for (int r = 0; r < 2; ++r)
            for (int p = 0; p < kParts; ++p) {
                for (int i = 0; i < kLocals; ++i) {
                    const int k = localKeys[r][p][i];
                    eng.queue(p).schedule(
                        keyWhen(r, k),
                        [&l = log[p], v = id(r, kParts, i)] {
                            l.push_back(v);
                        },
                        keyPrio(k));
                }
                eng.queue(p).schedule(kPostAt[r], [&, r, p] {
                    for (int i = 0; i < kPosts; ++i) {
                        const Post &x = posts[r][p][i];
                        eng.post(eng.queue(x.dest), keyWhen(r, x.key),
                                 [&l = log[x.dest], v = id(r, p, i)] {
                                     l.push_back(v);
                                 },
                                 keyPrio(x.key));
                    }
                });
            }
        eng.run();
        EXPECT_EQ(log, expect) << "threads=" << threads;
        EXPECT_TRUE(eng.empty());
    }
}

TEST(PartEngine, HostScheduleAfterRunStaysConservative)
{
    // Regression: a partition that sits idle while another runs far
    // ahead must not keep a stale local clock once the run returns.
    // Its clock lags while it sits out windows; run() and runUntil()
    // forward every clock to the committed time when they return, so
    // the clocks then agree to within one lookahead and host-initiated
    // work on the quiet partition can still send cross-partition
    // messages (the litmus suite hit this resubmitting MTTOP tasks).
    PartEngine eng(2, 10);
    int heavy = 0;
    for (Tick t = 50; t <= 10000; t += 50)
        eng.queue(1).schedule(t, [&] { ++heavy; });
    eng.queue(0).schedule(1, [] {});
    bool delivered = false;
    // Host work on partition 0 that posts to partition 1, then the
    // rest of the run.
    const auto postAcrossAndRun = [&] {
        // Both clocks are within [W, W+L) of the last window.
        EXPECT_GE(eng.queue(0).now() + eng.lookahead(),
                  eng.queue(1).now());
        delivered = false;
        eng.queue(0).schedule(eng.queue(0).now() + 1, [&] {
            postToPartition(eng.queue(1), [&] { delivered = true; });
        });
        eng.run();
        EXPECT_TRUE(delivered);
    };

    // The predicate fires at tick 5000, with partition 0 idle since
    // tick 1.
    ASSERT_TRUE(eng.runUntil([&] { return heavy == 100; }));
    EXPECT_EQ(eng.queue(1).now(), 5000u);
    postAcrossAndRun();
    EXPECT_EQ(heavy, 200);
    // run() returns after partition 1's last event, at tick 10000.
    postAcrossAndRun();
    EXPECT_TRUE(eng.empty());
}

TEST(PartEngine, CallInRunsInOwnerAndReplyFromReturns)
{
    // Partitions 1-3 each call into partition 0 in the same window
    // (so at 4 threads they run on different workers). Each call runs
    // in partition 0 one lookahead after its caller; its replyFrom
    // completion, called there, runs back in the caller's partition
    // one lookahead later, with the reply's argument.
    struct Seen
    {
        int callPart = -1, replyPart = -1, value = 0;
        Tick callAt = 0, replyAt = 0;
    };
    for (const int threads : {1, 4}) {
        PartEngine eng(4, 10, threads);
        EventQueue &owner = eng.queue(0);
        Seen seen[4];
        for (int p = 1; p < 4; ++p) {
            eng.queue(p).schedule(5, [&eng, &owner, &s = seen[p], p] {
                auto reply = replyFrom(
                    owner, std::function<void(int)>([&eng, &s, p](int v) {
                        s.replyPart = activePartition();
                        s.replyAt = eng.queue(p).now();
                        s.value = v;
                    }));
                callIn(owner, [&owner, &s, p,
                               reply = std::move(reply)]() mutable {
                    s.callPart = activePartition();
                    s.callAt = owner.now();
                    reply(10 * p);
                });
                EXPECT_EQ(s.callPart, -1)
                    << "a cross-partition call ran inline";
            });
        }
        eng.run();
        for (int p = 1; p < 4; ++p) {
            const Seen &s = seen[p];
            EXPECT_EQ(s.callPart, 0) << "threads=" << threads;
            EXPECT_EQ(s.callAt, 15u);
            EXPECT_EQ(s.replyPart, p);
            EXPECT_EQ(s.replyAt, 25u);
            EXPECT_EQ(s.value, 10 * p);
        }
        EXPECT_TRUE(eng.empty());
    }
}

TEST(PartEngine, CallInIsInlineInItsOwnPartitionAndFromHostCode)
{
    // No partition boundary: callIn runs before it returns, and
    // replyFrom hands back a completion that also runs inline.
    for (const int threads : {1, 4}) {
        PartEngine eng(4, 10, threads);
        EventQueue &owner = eng.queue(1);
        auto callAndReply = [&](int expect_part) {
            bool called = false, replied = false;
            auto reply = replyFrom(owner, std::function<void()>([&] {
                                       EXPECT_EQ(activePartition(),
                                                 expect_part);
                                       replied = true;
                                   }));
            callIn(owner, [&] {
                EXPECT_EQ(activePartition(), expect_part);
                called = true;
                reply();
            });
            EXPECT_TRUE(called) << "threads=" << threads;
            EXPECT_TRUE(replied) << "threads=" << threads;
        };
        callAndReply(0); // host code: no engine window is running
        bool ran = false;
        owner.schedule(5, [&] {
            callAndReply(1);
            EXPECT_EQ(owner.now(), 5u);
            ran = true;
        });
        eng.run();
        EXPECT_TRUE(ran);
        EXPECT_TRUE(eng.empty());
    }
}

TEST(PartEngine, ThreadCountIsBookkeepingOnly)
{
    PartEngine eng(2, 10, 0); // clamped to >= 1
    EXPECT_EQ(eng.threads(), 1);
    eng.setThreads(3);
    EXPECT_EQ(eng.threads(), 3);
}

TEST(PartEngine, OversizedThreadCountRunsOneWorkerPerPartition)
{
    // A window claims at most one queue per partition, so a thread
    // count far above the partition count must neither allocate nor
    // spawn the surplus workers. Both partitions hold events in every
    // window, so the worker pool is built and used.
    PartEngine eng(2, 10, std::numeric_limits<int>::max());
    EXPECT_EQ(eng.threads(), std::numeric_limits<int>::max());
    for (int p = 0; p < 2; ++p)
        for (Tick t = 1; t <= 50; ++t)
            eng.queue(p).schedule(t * 3, [] {});
    eng.run();
    EXPECT_EQ(eng.eventsExecuted(), 100u);
    EXPECT_TRUE(eng.empty());
}

/**
 * A scripted workload on an engine of lookahead kL. In window w
 * (ticks [w kL, (w + 1) kL)) partition p runs events(p, w) local
 * events, the first of which schedules the partition's next active
 * window, and posts one message to the next partition (by index,
 * wrapping) active in window w + 1. So exactly the partitions with
 * events(p, w) > 0 are active in window w. Every event appends an id
 * to its partition's log, the partition's commit order, and counts
 * whether it ran off the host thread that called run.
 */
class Script
{
  public:
    static constexpr Tick kL = 10;
    using Events = std::function<int(int p, std::uint64_t w)>;

    Script(PartEngine &eng, std::uint64_t windows, Events events)
        : log(eng.partitions()), offCaller(eng.partitions(), 0),
          eng_(eng), windows_(windows), events_(std::move(events))
    {
        for (int p = 0; p < eng.partitions(); ++p)
            if (const std::uint64_t w = nextActive(p, 0); w < windows_)
                eng.queue(p).schedule(w * kL,
                                      [this, p, w] { window(p, w); });
    }

    // Its events hold `this`.
    Script(const Script &) = delete;
    Script &operator=(const Script &) = delete;

    /** Run every window, in slices of @p slice windows with a host
     * pause of @p pause after each slice but the last. */
    void
    run(std::uint64_t slice, std::chrono::microseconds pause)
    {
        caller_ = std::this_thread::get_id();
        for (std::uint64_t w = slice;; w += slice) {
            eng_.run(w * kL - 1);
            if (w >= windows_)
                return;
            std::this_thread::sleep_for(pause);
        }
    }

    std::vector<std::vector<std::uint64_t>> log;
    std::vector<std::uint64_t> offCaller;

  private:
    static std::uint64_t
    id(std::uint64_t w, int p, int i)
    {
        return w << 20 | static_cast<std::uint64_t>(p) << 12 |
               static_cast<std::uint64_t>(i);
    }

    std::uint64_t
    nextActive(int p, std::uint64_t w) const
    {
        while (w < windows_ && events_(p, w) == 0)
            ++w;
        return w;
    }

    void
    note(int p, std::uint64_t v)
    {
        log[p].push_back(v);
        offCaller[p] += std::this_thread::get_id() != caller_;
    }

    void
    window(int p, std::uint64_t w)
    {
        EventQueue &q = eng_.queue(p);
        if (const std::uint64_t next = nextActive(p, w + 1);
            next < windows_)
            q.schedule(next * kL, [this, p, next] { window(p, next); });
        note(p, id(w, p, 0));
        for (int i = 1; i < events_(p, w); ++i)
            q.schedule(w * kL + static_cast<Tick>(i % 8),
                       [this, p, v = id(w, p, i)] { note(p, v); });
        const int parts = eng_.partitions();
        for (int d = 1; d < parts && w + 1 < windows_; ++d) {
            const int to = (p + d) % parts;
            if (events_(to, w + 1) > 0) {
                eng_.post(eng_.queue(to), (w + 1) * kL + 8,
                          [this, to, v = id(w, p, 4095)] { note(to, v); });
                break;
            }
        }
    }

    PartEngine &eng_;
    std::uint64_t windows_;
    Events events_;
    std::thread::id caller_;
};

/** The per-partition logs of @p events over @p windows windows on a
 * 1-thread engine of @p parts partitions. */
std::vector<std::vector<std::uint64_t>>
serialLog(int parts, std::uint64_t windows, const Script::Events &events)
{
    PartEngine eng(parts, Script::kL);
    Script s(eng, windows, events);
    s.run(windows, {});
    return s.log;
}

TEST(PartEngine, HeaviestPartitionStaysOnTheCaller)
{
    // Partition 2 runs 8 events in every window; the others join at
    // window 10, one event every other window. The first window with
    // two active partitions maps partition 2, by far the heaviest, to
    // thread 0, and so does every later rebalance: each of its events
    // runs on the thread that called run, while the commit order
    // stays the serial one.
    constexpr int kParts = 5;
    constexpr std::uint64_t kWindows = 3000; // spans 2 rebalances
    const Script::Events events = [](int p, std::uint64_t w) {
        if (p == 2)
            return 8;
        return w >= 10 && (w + p) % 2 == 0 ? 1 : 0;
    };
    const auto serial = serialLog(kParts, kWindows, events);
    for (const int threads : {2, 4}) {
        PartEngine eng(kParts, Script::kL, threads);
        Script s(eng, kWindows, events);
        s.run(kWindows, {});
        EXPECT_EQ(s.offCaller[2], 0u) << "threads=" << threads;
        EXPECT_EQ(s.log, serial) << "threads=" << threads;
        EXPECT_EQ(eng.windows(), kWindows);
    }
}

TEST(PartEngine, ParkedWorkersWakeForLaterWindows)
{
    // 10,500 windows cycling through one, two and all five partitions
    // active, run in slices with a host pause after each: far longer
    // than the hand-off's spin budget, so the workers park between
    // slices and must be woken for the next one. Any window lost or
    // run twice across a park shows in the logs.
    constexpr int kParts = 5;
    constexpr std::uint64_t kWindows = 10500;
    const Script::Events events = [](int p, std::uint64_t w) {
        const int n = 1 + static_cast<int>((w + p) % 4);
        const auto at = [&](std::uint64_t k) {
            return p == static_cast<int>(k % kParts);
        };
        switch (w % 3) {
        case 0:
            return at(w / 3) ? n : 0;
        case 1:
            return at(w) || at(w + 2) ? n : 0;
        default:
            return n;
        }
    };
    const auto serial = serialLog(kParts, kWindows, events);
    for (const int threads : {2, 4}) {
        PartEngine eng(kParts, Script::kL, threads);
        Script s(eng, kWindows, events);
        s.run(350, std::chrono::milliseconds(2));
        EXPECT_EQ(s.log, serial) << "threads=" << threads;
        EXPECT_EQ(eng.windows(), kWindows);
        EXPECT_TRUE(eng.empty());
    }
}

TEST(PartEngine, ParkedCallerWakesWhenTheLastWorkerLeaves)
{
    // Partition 1 (the worker's) holds each window for 2 ms, partition
    // 0 (the caller's) for 0.5 ms: the worker has claimed partition 1
    // long before the caller is done, so the caller outwaits its spin
    // budget at the join and parks. The worker leaving last must wake
    // it; a lost wakeup hangs here.
    PartEngine eng(2, Script::kL, 2);
    int runs[2] = {};
    for (Tick w = 0; w < 20; ++w)
        for (int p = 0; p < 2; ++p)
            eng.queue(p).schedule(w * Script::kL, [&runs, p] {
                std::this_thread::sleep_for(
                    std::chrono::microseconds(p == 0 ? 500 : 2000));
                ++runs[p];
            });
    eng.run();
    EXPECT_EQ(runs[0], 20);
    EXPECT_EQ(runs[1], 20);
    EXPECT_EQ(eng.windows(), 20u);
}

double
cpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    const auto sec = [](const timeval &t) {
        return static_cast<double>(t.tv_sec) + t.tv_usec * 1e-6;
    };
    return sec(ru.ru_utime) + sec(ru.ru_stime);
}

TEST(PartEngine, IdleWorkersPark)
{
    // After a threaded run the engine's three workers are still
    // alive; each spins for its budget and then parks. A worker that
    // spun on would cost up to 100 ms of CPU per worker over this
    // 100 ms sleep.
    PartEngine eng(5, Script::kL, 4);
    Script s(eng, 2000, [](int, std::uint64_t) { return 2; });
    s.run(2000, {});
    const double before = cpuSeconds();
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    const double used = cpuSeconds() - before;
    EXPECT_LT(used, 0.02) << "idle engine used " << used * 1e3
                          << " ms of CPU in 100 ms";
}

// gtest runs *DeathTest suites first, before any other test of this
// binary has started engine worker threads.
TEST(PerPartitionDeathTest, UnsizedStatPanicsInsteadOfWritingPastIt)
{
    // A standalone (1-slot) counter bumped by an event of partition 3
    // is a wiring bug: the bounds assert must catch it.
    EXPECT_DEATH(
        {
            PartEngine eng(4, 10);
            StatRegistry stats;
            Counter &c = stats.counter("c");
            eng.queue(3).schedule(1, [&c] { ++c; });
            eng.run();
        },
        "partition 3 written through a 1-slot statistic");
}

/** Shared stats of a 4-partition engine run at @p threads host
 * workers: 100 events in every partition bump one counter and record
 * into one distribution and one histogram. */
struct SharedStats
{
    std::uint64_t events = 0, weight = 0;
    std::uint64_t distCount = 0, latCount = 0;
    double distMean = 0, distMin = 0, distMax = 0, latSum = 0;
    std::uint64_t latMin = 0, latMax = 0;
    std::string json;
};

SharedStats
runSharedStats(int threads)
{
    constexpr int kParts = 4;
    PartEngine eng(kParts, 10, threads);
    StatRegistry stats(eng.partitions());
    Counter &events = stats.counter("test.events", "events run");
    Counter &weight = stats.counter("test.weight", "partition ids");
    Distribution &dist = stats.distribution("test.dist", "2 (p + 1)");
    LatencyHistogram &lat = stats.histogram("test.lat", "t (p + 1)");
    // Events 7 ticks apart in windows 10 wide: most windows hold
    // events of several partitions, which then run concurrently.
    for (int p = 0; p < kParts; ++p)
        for (Tick t = 1; t <= 100; ++t)
            eng.queue(p).schedule(t * 7 + p, [&, p, t] {
                ++events;
                weight += static_cast<std::uint64_t>(p);
                dist.record(2.0 * (p + 1));
                lat.record(t * static_cast<Tick>(p + 1));
            });
    eng.run();

    SharedStats out;
    out.events = events.value();
    out.weight = weight.value();
    out.distCount = dist.count();
    out.distMean = dist.mean();
    out.distMin = dist.minValue();
    out.distMax = dist.maxValue();
    out.latCount = lat.count();
    out.latSum = lat.sum();
    out.latMin = lat.minValue();
    out.latMax = lat.maxValue();
    std::ostringstream os;
    stats.dumpJson(os);
    out.json = os.str();
    return out;
}

TEST(PerPartition, SharedStatsAreExactAtAnyThreadCount)
{
    for (const int threads : {1, 4}) {
        const SharedStats s = runSharedStats(threads);
        EXPECT_EQ(s.events, 400u) << "threads=" << threads;
        EXPECT_EQ(s.weight, 600u);
        EXPECT_EQ(s.distCount, 400u);
        EXPECT_DOUBLE_EQ(s.distMean, 5.0);
        EXPECT_DOUBLE_EQ(s.distMin, 2.0);
        EXPECT_DOUBLE_EQ(s.distMax, 8.0);
        EXPECT_EQ(s.latCount, 400u);
        EXPECT_DOUBLE_EQ(s.latSum, 50500.0);
        EXPECT_EQ(s.latMin, 1u);
        EXPECT_EQ(s.latMax, 400u);
    }
    EXPECT_EQ(runSharedStats(1).json, runSharedStats(4).json);
}

} // namespace
} // namespace ccsvm::sim

namespace ccsvm::system
{
namespace
{

using core::ThreadContext;
using runtime::Process;
using sim::GuestTask;
using vm::VAddr;
namespace xt = ccsvm::xthreads;

/** Run the 8-thread launch/signal/join workload and return the full
 * stats JSON; the engine promises it is identical at any thread
 * count. */
std::string
launchAndDump(int sim_threads, Tick *elapsed)
{
    CcsvmConfig cfg;
    cfg.simThreads = sim_threads;
    CcsvmMachine m(cfg);
    Process &proc = m.createProcess();
    const VAddr done = proc.gmalloc(8 * 4);
    for (int i = 0; i < 8; ++i)
        proc.poke<std::uint32_t>(done + i * 4, 0);
    *elapsed = m.runMain(
        proc, [](ThreadContext &ctx, VAddr done_va) -> GuestTask {
            co_await xt::createMthread(
                ctx,
                [](ThreadContext &mt, VAddr d) -> GuestTask {
                    co_await xt::mttopSignal(mt, d);
                },
                done_va, 0, 7);
            co_await xt::cpuWaitAll(ctx, done_va, 0, 7);
        },
        done);
    std::ostringstream os;
    m.stats().dumpJson(os);
    return os.str();
}

TEST(PartEngineMachine, StatsIdenticalAcrossThreadCounts)
{
    Tick t1 = 0, t4 = 0;
    const std::string serial = launchAndDump(1, &t1);
    const std::string parallel = launchAndDump(4, &t4);
    EXPECT_EQ(t1, t4);
    EXPECT_EQ(serial, parallel);
    EXPECT_NE(serial.find("mifd.tasks"), std::string::npos);
}

TEST(SimThreads, HardwareJobsIsPositive)
{
    EXPECT_GE(sim::hardwareJobs(), 1u);
}

TEST(SimThreads, ResolveExplicitAndAuto)
{
    EXPECT_EQ(resolveSimThreads(1), 1);
    EXPECT_EQ(resolveSimThreads(3), 3);
    EXPECT_EQ(resolveSimThreads(0),
              static_cast<int>(sim::hardwareJobs()));
}

TEST(SimThreads, ResolveFromEnvironment)
{
    const char *saved = std::getenv("CCSVM_SIM_THREADS");
    const std::string keep = saved ? saved : "";

    ::unsetenv("CCSVM_SIM_THREADS");
    EXPECT_EQ(resolveSimThreads(-1), 1);
    ::setenv("CCSVM_SIM_THREADS", "4", 1);
    EXPECT_EQ(resolveSimThreads(-1), 4);
    ::setenv("CCSVM_SIM_THREADS", "0", 1);
    EXPECT_EQ(resolveSimThreads(-1),
              static_cast<int>(sim::hardwareJobs()));
    ::setenv("CCSVM_SIM_THREADS", "banana", 1);
    EXPECT_EQ(resolveSimThreads(-1), 1);
    // Above INT_MAX: invalid too, not narrowed to some other count.
    ::setenv("CCSVM_SIM_THREADS", "99999999999", 1);
    EXPECT_EQ(resolveSimThreads(-1), 1);
    // An explicit config wins without consulting the environment.
    ::setenv("CCSVM_SIM_THREADS", "7", 1);
    EXPECT_EQ(resolveSimThreads(2), 2);

    if (saved)
        ::setenv("CCSVM_SIM_THREADS", keep.c_str(), 1);
    else
        ::unsetenv("CCSVM_SIM_THREADS");
}

} // namespace
} // namespace ccsvm::system
