#include "noc/torus.hh"

#include <limits>

#include "base/intmath.hh"
#include "base/logging.hh"

namespace ccsvm::noc
{

TorusNetwork::TorusNetwork(std::vector<sim::EventQueue *> node_queues,
                           sim::StatRegistry &stats,
                           const std::string &name,
                           const TorusConfig &cfg)
    : cfg_(cfg), nodeQ_(std::move(node_queues)),
      linkFree_(static_cast<std::size_t>(cfg.width) * cfg.height * 4, 0),
      packets_(stats.counter(name + ".packets", "packets injected")),
      bytes_(stats.counter(name + ".bytes", "payload bytes injected")),
      hops_(stats.counter(name + ".hops", "total link traversals")),
      latency_(stats.distribution(name + ".latency",
                                  "end-to-end packet latency (ticks)")),
      trc_(stats.tracer()), lane_(stats.tracer().lane(name))
{
    ccsvm_assert(cfg.width >= 1 && cfg.height >= 1,
                 "torus dimensions must be positive");
    ccsvm_assert(static_cast<int>(nodeQ_.size()) == numNodes(),
                 "torus: need one queue per node");
    const int n = numNodes();
    route_.reserve(static_cast<std::size_t>(n) * n);
    for (NodeId at = 0; at < n; ++at) {
        for (NodeId dst = 0; dst < n; ++dst) {
            const NodeId next = nextHop(at, dst);
            route_.push_back({next, next == at ? -1 : linkIndex(at, next)});
        }
    }
}

namespace
{

/**
 * Signed shortest displacement from @p a to @p b on a ring of length
 * @p n: positive means move in the increasing direction.
 */
int
ringDelta(int a, int b, int n)
{
    int d = (b - a) % n;
    if (d < 0)
        d += n;
    if (d > n / 2 && n - d < d)
        d -= n;
    return d;
}

} // namespace

Tick
TorusNetwork::edgeAt(const sim::EventQueue *q, Cycles cycles) const
{
    // Same alignment rule as ClockDomain::clockEdge, but against the
    // partition queue that is actually executing the hop.
    const Tick aligned =
        divCeil(q->now(), cfg_.clockPeriod) * cfg_.clockPeriod;
    return aligned + cycles * cfg_.clockPeriod;
}

NodeId
TorusNetwork::nextHop(NodeId at, NodeId dst) const
{
    const int w = cfg_.width;
    const int h = cfg_.height;
    const int ax = at % w, ay = at / w;
    const int dx_pos = dst % w, dy_pos = dst / w;

    const int dx = ringDelta(ax, dx_pos, w);
    if (dx != 0) {
        const int nx = (ax + (dx > 0 ? 1 : -1) + w) % w;
        return ay * w + nx;
    }
    const int dy = ringDelta(ay, dy_pos, h);
    if (dy != 0) {
        const int ny = (ay + (dy > 0 ? 1 : -1) + h) % h;
        return ny * w + ax;
    }
    return at;
}

int
TorusNetwork::hopCount(NodeId src, NodeId dst) const
{
    int hops = 0;
    NodeId at = src;
    while (at != dst) {
        at = nextHop(at, dst);
        ++hops;
        ccsvm_assert(hops <= cfg_.width + cfg_.height,
                     "routing loop from %d to %d", src, dst);
    }
    return hops;
}

int
TorusNetwork::linkIndex(NodeId from, NodeId to) const
{
    const int w = cfg_.width;
    const int h = cfg_.height;
    const int fx = from % w, fy = from / w;
    const int tx = to % w, ty = to / w;
    int dir;
    if (fy == ty) {
        dir = ((fx + 1) % w == tx) ? 0 : 1; // +X : -X
    } else {
        dir = ((fy + 1) % h == ty) ? 2 : 3; // +Y : -Y
    }
    return from * 4 + dir;
}

Tick
TorusNetwork::serializationTicks(unsigned bytes) const
{
    // GB/s == bytes/ns; convert to ticks (ps).
    const double ns =
        static_cast<double>(bytes) / cfg_.linkBandwidthGBps;
    const auto t = static_cast<Tick>(ns * tickNs);
    return t > 0 ? t : 1;
}

void
TorusNetwork::send(NodeId src, NodeId dst, unsigned bytes,
                   Deliver deliver)
{
    ccsvm_assert(src >= 0 && src < numNodes(), "bad src node %d", src);
    ccsvm_assert(dst >= 0 && dst < numNodes(), "bad dst node %d", dst);

    ++packets_;
    bytes_ += bytes;

    // Injection runs in the source node's partition: every component
    // sends from its own node. The per-hop events that follow run in
    // the partition of the router they traverse.
    sim::EventQueue *q = nodeQ_[src];
    ccsvm_assert(sim::activeQueue() == q,
                 "torus send from outside node %d's partition", src);

    const Tick ser = serializationTicks(bytes);
    ccsvm_assert(ser <= std::numeric_limits<std::uint32_t>::max(),
                 "a %u-byte packet takes over 2^32 ticks to serialize", bytes);
    Packet pkt{q->now(), static_cast<std::uint32_t>(ser), src, dst,
               bytes, std::move(deliver)};
    if (src == dst) {
        // Local delivery still pays one router traversal.
        q->schedule(edgeAt(q, cfg_.hopLatency),
                    [this, pkt = std::move(pkt)]() mutable {
                        arrive(pkt);
                    },
                    sim::prioNetwork);
        return;
    }
    forward(pkt);
}

void
TorusNetwork::arrive(Packet &pkt)
{
    const Tick now = nodeQ_[pkt.dst]->now();
    latency_.record(static_cast<double>(now - pkt.start));
    if (trc_.enabled(sim::traceNoc))
        trc_.complete(sim::traceNoc, lane_, "pkt", pkt.start, now,
                      pkt.bytes);
    pkt.deliver();
}

void
TorusNetwork::forward(Packet &pkt)
{
    if (pkt.at == pkt.dst) {
        arrive(pkt);
        return;
    }
    const Step s = step(pkt.at, pkt.dst);
    sim::EventQueue *q = nodeQ_[pkt.at];
    const Tick depart = std::max(edgeAt(q), linkFree_[s.link]);
    linkFree_[s.link] = depart + pkt.ser;
    const Tick arrive = depart + pkt.ser + cfg_.hopTicks();
    ++hops_;

    pkt.at = s.next;
    auto hop = [this, pkt = std::move(pkt)]() mutable { forward(pkt); };
    static_assert(sim::Callback::holdsInline<decltype(hop)>,
                  "a hop holds its whole packet inline");
    sim::EventQueue *nq = nodeQ_[s.next];
    if (nq == q) {
        q->schedule(arrive, std::move(hop), sim::prioNetwork);
    } else {
        // arrive >= now + serialization (>= 1) + hopLatency ticks, so
        // it always clears the engine's conservative horizon (the
        // lookahead is exactly the hop-latency floor).
        q->engine()->post(*nq, arrive, std::move(hop),
                          sim::prioNetwork);
    }
}

} // namespace ccsvm::noc
