/**
 * @file
 * Unit tests for the torus and crossbar networks: routing correctness,
 * wraparound shortest paths, latency composition, link contention,
 * per-path FIFO ordering, and the torus's hop across a partition
 * boundary.
 */

#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "noc/crossbar.hh"
#include "noc/torus.hh"
#include "sim/eventq.hh"
#include "sim/parteventq.hh"
#include "sim/stats.hh"

namespace ccsvm::noc
{
namespace
{

/**
 * A @p w x @p h torus (12 GB/s links, 2-cycle hops at 1 GHz) on a
 * two-partition engine: columns x < w / 2 run in partition 0 and the
 * rest in partition 1, or every node in partition 0 when @p split is
 * false.
 */
struct PartTorus
{
    PartTorus(int w, int h, bool split = true)
        : cfg{w, h, 12.0, 2, 1000}, engine(2, cfg.hopTicks()),
          stats(engine.partitions())
    {
        for (int n = 0; n < w * h; ++n)
            nodeQ.push_back(
                &engine.queue(split && n % w >= w / 2 ? 1 : 0));
        net = std::make_unique<TorusNetwork>(nodeQ, stats, "noc", cfg);
    }

    /** Send from an event now in @p src's partition, as every
     * component does. */
    void
    send(NodeId src, NodeId dst, unsigned bytes,
         Network::Deliver deliver)
    {
        sim::EventQueue &q = *nodeQ[src];
        q.schedule(q.now(), [this, src, dst, bytes,
                             deliver = std::move(deliver)]() mutable {
            net->send(src, dst, bytes, std::move(deliver));
        });
    }

    void run() { engine.run(); }

    TorusConfig cfg;
    sim::PartEngine engine;
    sim::StatRegistry stats;
    std::vector<sim::EventQueue *> nodeQ;
    std::unique_ptr<TorusNetwork> net;
};

/** The current tick of the partition a delivery runs in. */
Tick
now()
{
    return sim::activeQueue()->now();
}

TEST(TorusTest, HopCountsUseWraparound)
{
    PartTorus t(4, 4);
    const TorusNetwork &net = *t.net;
    // Same node.
    EXPECT_EQ(net.hopCount(0, 0), 0);
    // Adjacent.
    EXPECT_EQ(net.hopCount(0, 1), 1);
    // Wraparound in X: 0 -> 3 is one hop on a 4-ring.
    EXPECT_EQ(net.hopCount(0, 3), 1);
    // Opposite corner: 2 in X (either way) + 2 in Y.
    EXPECT_EQ(net.hopCount(0, 10), 4);
    // Wraparound in Y: node 0 -> node 12 (row 3) is one hop.
    EXPECT_EQ(net.hopCount(0, 12), 1);
}

TEST(TorusTest, XyRoutingGoesXFirst)
{
    PartTorus t(4, 4);
    // From 0 to 5 (x=1, y=1): first hop must change X.
    EXPECT_EQ(t.net->nextHop(0, 5), 1);
    // Then Y.
    EXPECT_EQ(t.net->nextHop(1, 5), 5);
}

TEST(TorusTest, RouteTableFollowsXyRouting)
{
    const std::pair<int, int> grids[] = {{5, 4}, {4, 4}, {6, 6},
                                         {1, 6}, {6, 1}, {3, 3}};
    for (const auto &[w, h] : grids) {
        PartTorus t(w, h);
        const TorusNetwork &net = *t.net;
        for (NodeId src = 0; src < w * h; ++src) {
            for (NodeId dst = 0; dst < w * h; ++dst) {
                const TorusNetwork::Step s = net.step(src, dst);
                ASSERT_EQ(s.next, net.nextHop(src, dst))
                    << w << "x" << h << " " << src << " -> " << dst;
                ASSERT_EQ(s.link,
                          src == dst ? -1 : net.linkIndex(src, s.next))
                    << w << "x" << h << " " << src << " -> " << dst;

                // The table alone leads every packet home.
                NodeId at = src;
                int hops = 0;
                while (at != dst && hops <= w + h) {
                    at = net.step(at, dst).next;
                    ++hops;
                }
                EXPECT_EQ(at, dst);
                EXPECT_EQ(hops, net.hopCount(src, dst))
                    << w << "x" << h << " " << src << " -> " << dst;
            }
        }
    }
}

TEST(TorusTest, DeliveryLatencyMatchesHops)
{
    // Nine packets injected together, one per row of a 4x9 grid, so
    // no two share a link: 8, 16 and 72 bytes over 0, 1 and 2 X hops.
    // A hop departs on the next NoC clock edge, holds its link for
    // the packet's own serialization time (bytes / 12 GB/s,
    // truncated to ps: 666, 1,333 and 6,000) and arrives 2 cycles
    // later; a local delivery costs one router traversal.
    PartTorus t(4, 9);
    const unsigned sizes[] = {8, 16, 72};
    const Tick want[3][3] = {{2000, 2666, 3000 + 666 + 2000},
                             {2000, 3333, 4000 + 1333 + 2000},
                             {2000, 8000, 8000 + 6000 + 2000}};
    Tick arrived[3][3] = {};
    for (int s = 0; s < 3; ++s) {
        for (int hops = 0; hops < 3; ++hops) {
            const NodeId src = (s * 3 + hops) * 4;
            t.send(src, src + hops, sizes[s],
                   [&arrived, s, hops] { arrived[s][hops] = now(); });
        }
    }
    t.run();
    for (int s = 0; s < 3; ++s) {
        for (int hops = 0; hops < 3; ++hops)
            EXPECT_EQ(arrived[s][hops], want[s][hops])
                << sizes[s] << " B over " << hops << " hops";
    }
}

TEST(TorusTest, AllPairsDeliver)
{
    PartTorus t(5, 4);
    const int nodes = t.net->numNodes();
    int delivered = 0;
    for (int s = 0; s < nodes; ++s) {
        for (int d = 0; d < nodes; ++d)
            t.send(s, d, 72, [&] { ++delivered; });
    }
    t.run();
    EXPECT_EQ(delivered, nodes * nodes);
}

TEST(TorusTest, SamePathFifoOrder)
{
    PartTorus t(4, 4);
    std::vector<int> order;
    // Mixed sizes: a short message never overtakes a long one sent
    // before it.
    for (int i = 0; i < 8; ++i)
        t.send(0, 2, i % 2 ? 8 : 4096,
               [&order, i] { order.push_back(i); });
    t.run();
    ASSERT_EQ(order.size(), 8u);
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(order[i], i);
}

TEST(TorusTest, ContentionDelaysSharedLink)
{
    PartTorus t(4, 1);
    // Two large packets over the same 0->1 link: the second must
    // arrive at least one serialization time after the first.
    Tick first = 0, second = 0;
    t.send(0, 1, 4096, [&] { first = now(); });
    t.send(0, 1, 4096, [&] { second = now(); });
    t.run();
    // 4096 B at 12 GB/s = ~341 ns serialization.
    EXPECT_GE(second - first, 340000u);
}

TEST(TorusTest, DisjointPathsDoNotInterfere)
{
    PartTorus t(4, 4);
    Tick a = 0, b = 0;
    t.send(0, 1, 72, [&] { a = now(); });
    t.send(8, 9, 72, [&] { b = now(); });
    t.run();
    EXPECT_EQ(a, b) << "independent links must not contend";
}

TEST(TorusTest, LocalDeliveryStillCostsARouterHop)
{
    PartTorus t(4, 4);
    Tick arrived = 0;
    t.send(3, 3, 72, [&] { arrived = now(); });
    t.run();
    EXPECT_EQ(arrived, 2000u);
}

TEST(TorusTest, StatsAccumulate)
{
    PartTorus t(4, 4);
    t.send(0, 2, 8, [] {});
    t.send(0, 1, 72, [] {});
    t.run();
    EXPECT_EQ(t.stats.get("noc.packets"), 2u);
    EXPECT_EQ(t.stats.get("noc.bytes"), 80u);
    EXPECT_EQ(t.stats.get("noc.hops"), 3u);
}

TEST(TorusTest, CrossPartitionHopArrivesOnTime)
{
    // From a node of each partition to every node: a route across the
    // boundary takes that hop through PartEngine::post and must
    // arrive at the tick the unsplit grid gives.
    for (const NodeId src : {0, 3}) {
        for (NodeId dst = 0; dst < 16; ++dst) {
            PartTorus split(4, 4), flat(4, 4, false);
            Tick a = 0, b = 0;
            split.send(src, dst, 72, [&] { a = now(); });
            flat.send(src, dst, 72, [&] { b = now(); });
            split.run();
            flat.run();
            EXPECT_GT(a, 0u);
            EXPECT_EQ(a, b) << src << " -> " << dst;
        }
    }
}

TEST(CrossbarTest, DeliversWithFixedLatency)
{
    sim::EventQueue eq;
    sim::StatRegistry stats;
    CrossbarConfig cfg;
    cfg.nodes = 4;
    cfg.latency = 4 * tickNs;
    cfg.bandwidthGBps = 24.0;
    CrossbarNetwork net(eq, stats, "xbar", cfg);
    Tick arrived = 0;
    net.send(0, 3, 8, [&] { arrived = eq.now(); });
    eq.run();
    // serialization (~0.3ns -> 1 tick floor) + 4ns latency
    EXPECT_GE(arrived, 4 * tickNs);
    EXPECT_LT(arrived, 5 * tickNs);
}

TEST(CrossbarTest, PerPortOccupancySerializes)
{
    sim::EventQueue eq;
    sim::StatRegistry stats;
    CrossbarConfig cfg;
    cfg.nodes = 4;
    cfg.latency = 1 * tickNs;
    cfg.bandwidthGBps = 1.0; // 1 byte per ns
    CrossbarNetwork net(eq, stats, "xbar", cfg);
    std::vector<Tick> arrivals;
    net.send(0, 2, 1000, [&] { arrivals.push_back(eq.now()); });
    net.send(1, 2, 1000, [&] { arrivals.push_back(eq.now()); });
    // Different destination: not serialized against the above.
    net.send(1, 3, 1000, [&] { arrivals.push_back(eq.now()); });
    eq.run();
    ASSERT_EQ(arrivals.size(), 3u);
    std::sort(arrivals.begin(), arrivals.end());
    // Port-2 packets: ~1001ns and ~2002ns; port-3 packet: ~1001ns.
    EXPECT_GE(arrivals[2] - arrivals[0], 990 * tickNs);
}

} // namespace
} // namespace ccsvm::noc
