/**
 * @file
 * Message-level on-chip network interface.
 *
 * The coherence protocol exchanges typed messages between controllers;
 * the network's job is purely timing: given source node, destination
 * node and size, decide when the receiver's delivery closure runs.
 * Buffering is unbounded, so no message class can block another and
 * the network carries no virtual-network class.
 */

#ifndef CCSVM_NOC_NETWORK_HH
#define CCSVM_NOC_NETWORK_HH

#include "base/types.hh"
#include "sim/eventq.hh"

namespace ccsvm::noc
{

/** Identifier of an endpoint attached to the network. */
using NodeId = int;

/** Abstract network: torus for the CCSVM chip, crossbar for the APU. */
class Network
{
  public:
    /** What runs at the arrival tick: for a coherence message, the
     * receiving controller and the message itself, 88 bytes, held
     * inline so that the packet carrying it allocates nothing. */
    using Deliver = sim::InlineCallback<88>;

    virtual ~Network() = default;

    /**
     * Send a message of @p bytes from @p src to @p dst; @p deliver runs
     * at the arrival tick. Messages from one src to one dst are
     * delivered in send order, whatever their sizes: they share one
     * path and each waits for the one before it to clear each link
     * (torus) or the destination port (crossbar).
     */
    virtual void send(NodeId src, NodeId dst, unsigned bytes,
                      Deliver deliver) = 0;

    /** Number of attachable endpoints. */
    virtual int numNodes() const = 0;
};

} // namespace ccsvm::noc

#endif // CCSVM_NOC_NETWORK_HH
