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
 * and each L2 replacement policy.
 */

#include <gtest/gtest.h>

#include <map>
#include <set>
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

class CoherenceStress : public ::testing::TestWithParam<StressParams>
{};

TEST_P(CoherenceStress, MonotonicWritersNoLostUpdates)
{
    const auto p = GetParam();
    CohHarness h = makeHarness(p, 4);
    Random rng(p.seed);

    std::vector<Addr> pool;
    for (int i = 0; i < p.addrPool; ++i)
        pool.push_back(0x100000 + static_cast<Addr>(i) * 64 +
                       (i % 8) * 8);

    // Designated writer per address; sequence counters.
    std::vector<std::uint64_t> next_seq(pool.size(), 1);
    std::vector<std::map<int, std::uint64_t>> last_seen(pool.size());
    int violations = 0;
    int remaining = p.numL1s * p.opsPerL1;

    std::function<void(int)> step = [&](int id) {
        if (remaining == 0)
            return;
        --remaining;
        const auto ai = static_cast<std::size_t>(
            rng.below(pool.size()));
        const Addr addr = pool[ai];
        const int writer =
            static_cast<int>((addr >> 6) % p.numL1s);
        const bool do_write = (id == writer) && rng.chance(0.5);

        if (do_write) {
            const std::uint64_t seq = next_seq[ai]++;
            h.issue(id, addr,
                    {.kind = ScalarOp::Kind::Write, .wdata = seq},
                    [&, id](std::uint64_t) { step(id); });
        } else {
            h.issue(id, addr, {.kind = ScalarOp::Kind::Read},
                    [&, id, ai](std::uint64_t v) {
                        auto &seen = last_seen[ai][id];
                        if (v < seen)
                            ++violations;
                        seen = v;
                        step(id);
                    });
        }
    };

    for (int id = 0; id < p.numL1s; ++id)
        step(id);
    h.drain();

    EXPECT_EQ(remaining, 0) << "some L1 wedged mid-run";
    EXPECT_EQ(violations, 0) << "stale data observed after a write";

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

TEST_P(CoherenceStress, AtomicTicketsAreUniqueAndComplete)
{
    const auto p = GetParam();
    CohHarness h = makeHarness(p, L1Config{}.maxMshrs);
    Random rng(p.seed ^ 0xabcdef);

    constexpr int num_counters = 4;
    std::vector<std::set<std::uint64_t>> tickets(num_counters);
    std::vector<int> increments(num_counters, 0);
    int duplicate_tickets = 0;
    int remaining = p.numL1s * p.opsPerL1;

    std::function<void(int)> step = [&](int id) {
        if (remaining == 0)
            return;
        --remaining;
        const int c = static_cast<int>(rng.below(num_counters));
        // Spread the counters over blocks and banks.
        const Addr addr = 0x200000 + static_cast<Addr>(c) * 192;
        ++increments[c];
        h.issue(id, addr,
                {.kind = ScalarOp::Kind::Amo, .amoOp = AmoOp::Inc},
                [&, id, c](std::uint64_t old_val) {
                    if (!tickets[c].insert(old_val).second)
                        ++duplicate_tickets;
                    step(id);
                });
    };

    for (int id = 0; id < p.numL1s; ++id)
        step(id);
    h.drain();

    EXPECT_EQ(duplicate_tickets, 0)
        << "two atomics observed the same old value: lost atomicity";
    for (int c = 0; c < num_counters; ++c) {
        const Addr addr = 0x200000 + static_cast<Addr>(c) * 192;
        EXPECT_EQ(h.load(0, addr),
                  static_cast<std::uint64_t>(increments[c]));
    }
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

INSTANTIATE_TEST_SUITE_P(
    Sweep, CoherenceStress, ::testing::ValuesIn(stressParams()),
    [](const ::testing::TestParamInfo<StressParams> &info) {
        const auto &p = info.param;
        return std::string(protocolName(p.protos.first)) + "_" +
               protocolName(p.protos.second) + "_" +
               sliceHashName(p.hash) + "_" +
               cache::replacerName(p.replace) + "_l1x" +
               std::to_string(p.numL1s) + "_banks" +
               std::to_string(p.numBanks) + "_pool" +
               std::to_string(p.addrPool) + "_seed" +
               std::to_string(p.seed);
    });

} // namespace
} // namespace ccsvm::test
