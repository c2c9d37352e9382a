/**
 * @file
 * A simple crossbar network.
 *
 * The APU baseline's CPU cluster connects "to each other via crossbar"
 * (Table 2); every src→dst pair has a dedicated path, so the only
 * contention is per-destination-port serialization.
 */

#ifndef CCSVM_NOC_CROSSBAR_HH
#define CCSVM_NOC_CROSSBAR_HH

#include <string>
#include <vector>

#include "base/logging.hh"
#include "noc/network.hh"
#include "sim/eventq.hh"
#include "sim/stats.hh"

namespace ccsvm::noc
{

/** Crossbar configuration. */
struct CrossbarConfig
{
    int nodes = 8;
    double bandwidthGBps = 24.0;  ///< per destination port
    Tick latency = 4 * tickNs;    ///< fixed traversal latency
};

/** Fully-connected switch with per-destination-port occupancy. */
class CrossbarNetwork : public Network
{
  public:
    CrossbarNetwork(sim::EventQueue &eq, sim::StatRegistry &stats,
                    const std::string &name, const CrossbarConfig &cfg)
        : eq_(&eq), cfg_(cfg),
          portFree_(static_cast<std::size_t>(cfg.nodes), 0),
          packets_(stats.counter(name + ".packets", "packets injected")),
          bytes_(stats.counter(name + ".bytes", "payload bytes injected"))
    {}

    void
    send(NodeId src, NodeId dst, unsigned bytes,
         Deliver deliver) override
    {
        ccsvm_assert(src >= 0 && src < cfg_.nodes, "bad src %d", src);
        ccsvm_assert(dst >= 0 && dst < cfg_.nodes, "bad dst %d", dst);
        ++packets_;
        bytes_ += bytes;

        const double ns =
            static_cast<double>(bytes) / cfg_.bandwidthGBps;
        const Tick ser = static_cast<Tick>(ns * tickNs) + 1;
        const Tick depart = std::max(eq_->now(), portFree_[dst]);
        portFree_[dst] = depart + ser;
        eq_->schedule(depart + ser + cfg_.latency, std::move(deliver),
                      sim::prioNetwork);
    }

    int numNodes() const override { return cfg_.nodes; }

  private:
    sim::EventQueue *eq_;
    CrossbarConfig cfg_;
    std::vector<Tick> portFree_;
    sim::Counter &packets_;
    sim::Counter &bytes_;
};

} // namespace ccsvm::noc

#endif // CCSVM_NOC_CROSSBAR_HH
