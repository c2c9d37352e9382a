/**
 * @file
 * Randomized coherence protocol stress tests, in the spirit of gem5's
 * Ruby random tester.
 *
 * Scheme 1 (monotonic writers): each address in a small hot pool has a
 * single designated writer L1 that stores an incrementing sequence
 * number; every reader must observe a monotonically non-decreasing
 * sequence per address. Any protocol bug that loses a write, delivers
 * stale data after an invalidation, or mixes blocks shows up as a
 * monotonicity violation or a wrong final value. The SWMR monitor is
 * active throughout and panics on any two-writers state.
 *
 * Scheme 2 (atomic tickets): all L1s hammer atomic fetch-and-inc on
 * shared counters; every returned ticket must be unique and the final
 * counter must equal the number of increments.
 *
 * Both schemes run on every geometry crossed with each CPU x MTTOP
 * protocol pair (half the L1s in each cluster), each home-slice hash
 * and each L2 replacement policy. At the default bank policies they
 * also run at 1 and 4 engine threads, which must leave byte-identical
 * stats.
 */

#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "base/random.hh"
#include "coherence_harness.hh"
#include "protocol_env.hh"

namespace ccsvm::test
{
namespace
{

struct StressParams
{
    int numL1s;
    int numBanks;
    int addrPool;   ///< number of hot addresses
    int opsPerL1;
    std::uint64_t seed;
    ProtocolPair protos{Protocol::MOESI, Protocol::MOESI};
    SliceHashKind hash = SliceHashKind::Mod;
    cache::ReplacerKind replace = cache::ReplacerKind::Lru;
};

/** The harness for @p p: half its L1s in the CPU cluster, half in the
 * MTTOP cluster, over small caches that force constant evictions,
 * recalls and races. */
CohHarness
makeHarness(const StressParams &p, unsigned max_mshrs)
{
    L1Config l1cfg;
    l1cfg.sizeBytes = 1024;
    l1cfg.assoc = 2;
    l1cfg.maxMshrs = max_mshrs;
    DirConfig dcfg;
    dcfg.bankSizeBytes = 2048;
    dcfg.assoc = 2;
    dcfg.replace = p.replace;
    const int cpu_l1s = p.numL1s / 2;
    return CohHarness(
        CohHarness::Clusters{cpu_l1s, p.numL1s - cpu_l1s,
                             p.protos.first, p.protos.second},
        p.numBanks, l1cfg, dcfg, p.hash);
}

/**
 * Scheme 1 on @p h: each L1 runs p.opsPerL1 random accesses to the
 * pool from its own RNG, and keeps its own tallies, which only its
 * completion callbacks touch, so only from its own partition.
 */
void
runMonotonicWriters(CohHarness &h, const StressParams &p)
{
    std::vector<Addr> pool;
    for (int i = 0; i < p.addrPool; ++i)
        pool.push_back(0x100000 + static_cast<Addr>(i) * 64 +
                       (i % 8) * 8);

    // Designated writer per address; its sequence counter is only
    // touched by that writer.
    std::vector<std::uint64_t> next_seq(pool.size(), 1);
    struct L1Run
    {
        Random rng;
        int remaining;
        int violations = 0;
        std::vector<std::uint64_t> lastSeen; ///< per pool address
    };
    std::vector<L1Run> runs;
    for (int id = 0; id < p.numL1s; ++id)
        runs.push_back({Random(p.seed * 64 + id), p.opsPerL1, 0,
                        std::vector<std::uint64_t>(pool.size(), 0)});

    std::function<void(int)> step = [&](int id) {
        L1Run &r = runs[id];
        if (r.remaining == 0)
            return;
        --r.remaining;
        const auto ai = static_cast<std::size_t>(
            r.rng.below(pool.size()));
        const Addr addr = pool[ai];
        const int writer =
            static_cast<int>((addr >> 6) % p.numL1s);
        const bool do_write = (id == writer) && r.rng.chance(0.5);

        if (do_write) {
            const std::uint64_t seq = next_seq[ai]++;
            h.issue(id, addr,
                    {.kind = ScalarOp::Kind::Write, .wdata = seq},
                    [&, id](std::uint64_t) { step(id); });
        } else {
            h.issue(id, addr, {.kind = ScalarOp::Kind::Read},
                    [&, id, ai](std::uint64_t v) {
                        L1Run &me = runs[id];
                        if (v < me.lastSeen[ai])
                            ++me.violations;
                        me.lastSeen[ai] = v;
                        step(id);
                    });
        }
    };

    for (int id = 0; id < p.numL1s; ++id)
        step(id);
    h.drain();

    for (const L1Run &r : runs) {
        EXPECT_EQ(r.remaining, 0) << "some L1 wedged mid-run";
        EXPECT_EQ(r.violations, 0) << "stale data observed after a write";
    }

    // Final values must equal the last write issued per address.
    for (std::size_t ai = 0; ai < pool.size(); ++ai) {
        const std::uint64_t expect = next_seq[ai] - 1;
        EXPECT_EQ(h.load(0, pool[ai]), expect)
            << "lost update at 0x" << std::hex << pool[ai];
    }

    // No transaction may be left open (drain in-flight Unblocks from
    // the verification loads first).
    h.drain();
    for (int id = 0; id < h.caches.numL1s(); ++id)
        EXPECT_EQ(h.l1(id).pendingTransactions(), 0u);
    for (int b = 0; b < h.caches.numBanks(); ++b)
        EXPECT_EQ(h.bank(b).pendingWork(), 0u)
            << h.bank(b).describePending();
}

/**
 * Scheme 2 on @p h: each L1 runs p.opsPerL1 atomic increments on
 * counters its own RNG picks and keeps its own increment tallies and
 * ticket list, merged after the run.
 */
void
runAtomicTickets(CohHarness &h, const StressParams &p)
{
    constexpr int num_counters = 4;
    // Spread the counters over blocks and banks.
    auto counter_addr = [](int c) {
        return 0x200000 + static_cast<Addr>(c) * 192;
    };
    struct L1Run
    {
        Random rng;
        int remaining;
        std::vector<int> increments; ///< per counter
        /** (counter, old value) of every completed increment. */
        std::vector<std::pair<int, std::uint64_t>> tickets;
    };
    std::vector<L1Run> runs;
    for (int id = 0; id < p.numL1s; ++id)
        runs.push_back({Random((p.seed ^ 0xabcdef) * 64 + id),
                        p.opsPerL1, std::vector<int>(num_counters, 0),
                        {}});

    std::function<void(int)> step = [&](int id) {
        L1Run &r = runs[id];
        if (r.remaining == 0)
            return;
        --r.remaining;
        const int c = static_cast<int>(r.rng.below(num_counters));
        ++r.increments[c];
        h.issue(id, counter_addr(c),
                {.kind = ScalarOp::Kind::Amo, .amoOp = AmoOp::Inc},
                [&, id, c](std::uint64_t old_val) {
                    runs[id].tickets.emplace_back(c, old_val);
                    step(id);
                });
    };

    for (int id = 0; id < p.numL1s; ++id)
        step(id);
    h.drain();

    std::vector<std::set<std::uint64_t>> tickets(num_counters);
    std::vector<std::uint64_t> increments(num_counters, 0);
    int duplicate_tickets = 0;
    for (const L1Run &r : runs) {
        for (const auto &[c, old_val] : r.tickets)
            if (!tickets[c].insert(old_val).second)
                ++duplicate_tickets;
        for (int c = 0; c < num_counters; ++c)
            increments[c] += r.increments[c];
    }
    EXPECT_EQ(duplicate_tickets, 0)
        << "two atomics observed the same old value: lost atomicity";
    for (int c = 0; c < num_counters; ++c)
        EXPECT_EQ(h.load(0, counter_addr(c)), increments[c]);
}

class CoherenceStress : public ::testing::TestWithParam<StressParams>
{};

TEST_P(CoherenceStress, MonotonicWritersNoLostUpdates)
{
    const auto p = GetParam();
    CohHarness h = makeHarness(p, 4);
    runMonotonicWriters(h, p);
}

TEST_P(CoherenceStress, AtomicTicketsAreUniqueAndComplete)
{
    const auto p = GetParam();
    CohHarness h = makeHarness(p, L1Config{}.maxMshrs);
    runAtomicTickets(h, p);
}

/** Both schemes on engines running @p threads host threads; @return
 * the two runs' stats JSON. */
std::string
statsAtThreads(const StressParams &p, int threads)
{
    std::ostringstream os;
    {
        CohHarness h = makeHarness(p, 4);
        h.engine.setThreads(threads);
        runMonotonicWriters(h, p);
        h.stats.dumpJson(os);
    }
    CohHarness h = makeHarness(p, L1Config{}.maxMshrs);
    h.engine.setThreads(threads);
    runAtomicTickets(h, p);
    h.stats.dumpJson(os);
    return os.str();
}

/** The engine commits the same event order at any thread count, so
 * both schemes must pass and leave byte-identical stats at 1 and 4
 * threads, with the CPU and MTTOP clusters and every bank in their
 * own partitions. */
class CoherenceStressThreads
    : public ::testing::TestWithParam<StressParams>
{};

TEST_P(CoherenceStressThreads, SameStatsAtOneAndFourThreads)
{
    const auto p = GetParam();
    EXPECT_EQ(statsAtThreads(p, 1), statsAtThreads(p, 4));
}

/** The geometry sweep crossed with every protocol pair under test,
 * every slice hash and every replacer: the tiny caches force constant
 * evictions, recalls and races, which is exactly where the
 * per-protocol transition decisions, the pair mediation and the bank
 * layer's victim and home choices can go wrong. */
std::vector<StressParams>
stressParams()
{
    static constexpr StressParams base[] = {
        {2, 1, 8, 300, 1},
        {4, 2, 16, 300, 2},
        {8, 4, 24, 250, 3},
        {14, 4, 32, 200, 4}, // the paper's 14 L1s
        {4, 1, 4, 400, 5},   // heavy same-block contention
        {8, 2, 64, 150, 6},  // wide footprint, recalls
    };
    std::vector<StressParams> out;
    for (const ProtocolPair &protos : testProtocolPairs()) {
        for (const SliceHashKind hash : allSliceHashes) {
            for (const cache::ReplacerKind replace : cache::allReplacers) {
                for (StressParams p : base) {
                    p.protos = protos;
                    p.hash = hash;
                    p.replace = replace;
                    out.push_back(p);
                }
            }
        }
    }
    return out;
}

/** The sweep at the default bank policies (mod hashing, lru), which
 * also runs threaded. */
std::vector<StressParams>
modLruParams()
{
    std::vector<StressParams> out;
    for (const StressParams &p : stressParams())
        if (p.hash == SliceHashKind::Mod &&
            p.replace == cache::ReplacerKind::Lru)
            out.push_back(p);
    return out;
}

std::string
paramName(const ::testing::TestParamInfo<StressParams> &info)
{
    const auto &p = info.param;
    return std::string(protocolName(p.protos.first)) + "_" +
           protocolName(p.protos.second) + "_" + sliceHashName(p.hash) +
           "_" + cache::replacerName(p.replace) + "_l1x" +
           std::to_string(p.numL1s) + "_banks" +
           std::to_string(p.numBanks) + "_pool" +
           std::to_string(p.addrPool) + "_seed" + std::to_string(p.seed);
}

INSTANTIATE_TEST_SUITE_P(Sweep, CoherenceStress,
                         ::testing::ValuesIn(stressParams()), paramName);

INSTANTIATE_TEST_SUITE_P(Threads, CoherenceStressThreads,
                         ::testing::ValuesIn(modLruParams()), paramName);

} // namespace
} // namespace ccsvm::test
