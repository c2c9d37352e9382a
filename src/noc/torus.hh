/**
 * @file
 * 2D torus interconnect (the paper's Figure 1 topology).
 *
 * Packets are routed hop-by-hop with dimension-order (X then Y)
 * routing, taking the shorter wraparound direction in each dimension.
 * Each directional physical link models serialization at the configured
 * bandwidth (Table 2: 12 GB/s) plus a per-hop router+link latency; a
 * link busy with one packet delays the next (FIFO occupancy), which
 * both orders same-path messages and models contention.
 */

#ifndef CCSVM_NOC_TORUS_HH
#define CCSVM_NOC_TORUS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "base/types.hh"
#include "noc/network.hh"
#include "sim/eventq.hh"
#include "sim/parteventq.hh"
#include "sim/stats.hh"

namespace ccsvm::noc
{

/** Torus configuration. */
struct TorusConfig
{
    int width = 5;    ///< nodes per row (X dimension)
    int height = 4;   ///< nodes per column (Y dimension)
    double linkBandwidthGBps = 12.0;  ///< Table 2
    Cycles hopLatency = 2;  ///< router traversal + link, in NoC cycles
    Tick clockPeriod = 1000; ///< 1 GHz NoC clock

    /** One hop's latency in ticks: the soonest a packet can reach
     * another node, hence the lookahead of an engine it spans. */
    Tick hopTicks() const { return hopLatency * clockPeriod; }
};

/**
 * 2D torus with XY routing and per-link occupancy.
 *
 * Every node belongs to one partition queue of a sim::PartEngine. A
 * packet is injected in its source node's partition, each per-hop
 * event runs in the partition of the router it traverses (a hop into
 * another partition goes through PartEngine::post, which the
 * hop-latency floor makes legal), and the delivery runs in the
 * destination node's partition. A packet is one value moved from hop
 * to hop: each hop's event holds it inline, delivery included, so a
 * packet allocates nothing. The route is worked out once, at
 * construction: a table gives the next hop and outgoing link for
 * every (node, destination) pair, from nextHop and linkIndex, and a
 * packet's serialization time is worked out once, at injection.
 */
class TorusNetwork : public Network
{
  public:
    /**
     * @param node_queues the partition queue owning each node, one per
     *        node of the width x height grid
     */
    TorusNetwork(std::vector<sim::EventQueue *> node_queues,
                 sim::StatRegistry &stats, const std::string &name,
                 const TorusConfig &cfg);

    void send(NodeId src, NodeId dst, unsigned bytes,
              Deliver deliver) override;

    int numNodes() const override { return cfg_.width * cfg_.height; }

    /**
     * Next hop from @p at toward @p dst under XY dimension-order
     * routing with shortest wrap. Exposed for unit tests.
     */
    NodeId nextHop(NodeId at, NodeId dst) const;

    /** Minimal hop count between two nodes (for tests). */
    int hopCount(NodeId src, NodeId dst) const;

    /** Directional link index from @p from to adjacent @p to. */
    int linkIndex(NodeId from, NodeId to) const;

    /** One step of a route: the next node and the link that leads
     * there; link is -1 at the destination. */
    struct Step
    {
        NodeId next;
        int link;
    };

    /** The route table's step from @p at toward @p dst: nextHop and
     * linkIndex, worked out at construction. */
    Step
    step(NodeId at, NodeId dst) const
    {
        return route_[static_cast<std::size_t>(at * numNodes() + dst)];
    }

  private:
    struct Packet
    {
        Tick start;        ///< injection tick
        std::uint32_t ser; ///< serialization ticks on each link
        NodeId at;         ///< the node the packet has reached
        NodeId dst;
        unsigned bytes;
        Deliver deliver;
    };

    /** Advance @p pkt from the node it is at; called once per hop. */
    void forward(Packet &pkt);

    /** Record @p pkt's latency and trace span at its destination,
     * then deliver it. */
    void arrive(Packet &pkt);

    Tick serializationTicks(unsigned bytes) const;

    /** Next NoC clock edge (+ @p cycles) as seen from @p q. */
    Tick edgeAt(const sim::EventQueue *q, Cycles cycles = 0) const;

    TorusConfig cfg_;
    /** The partition queue owning each node. */
    std::vector<sim::EventQueue *> nodeQ_;
    /** The step from every node toward every destination, indexed
     * at * numNodes() + dst. */
    std::vector<Step> route_;
    /** busy-until tick per directional link (4 per node: +X -X +Y -Y).
     * Link at*4+dir is only touched by node @p at's partition. */
    std::vector<Tick> linkFree_;

    sim::Counter &packets_;
    sim::Counter &bytes_;
    sim::Counter &hops_;
    sim::Distribution &latency_;

    sim::Tracer &trc_;
    int lane_;
};

} // namespace ccsvm::noc

#endif // CCSVM_NOC_TORUS_HH
