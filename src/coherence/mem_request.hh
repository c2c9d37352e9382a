/**
 * @file
 * A core-issued memory request as presented to an L1 controller.
 *
 * Requests are single-block scalar accesses (guest loads/stores/atomics
 * are naturally aligned and at most 8 bytes, so they never straddle a
 * 64-byte block). The L1 performs the functional access on real block
 * data once coherence permission is held and invokes onDone with the
 * read (or pre-RMW) value.
 */

#ifndef CCSVM_COHERENCE_MEM_REQUEST_HH
#define CCSVM_COHERENCE_MEM_REQUEST_HH

#include <cstdint>
#include <functional>
#include <memory>

#include "base/types.hh"
#include "coherence/types.hh"

namespace ccsvm::coherence
{

/** One load, store or atomic RMW presented to an L1. */
struct MemRequest
{
    ScalarOp op;
    Addr paddr = 0;

    /** Region of the page this access targets (carried by the TLB
     * alongside the translation). Bypass requests skip the L1 array
     * entirely; ProtocolOverride requests run under the region's
     * protocol instead of the cluster's. */
    Region region;

    /** Sentinel for issueTick: not yet presented to an L1. */
    static constexpr Tick notIssued = ~Tick(0);

    /** Tick of the first L1Controller::access() for this request;
     * stamped by the L1, survives retries (PutAck waiters, overflow
     * drains), and anchors the end-to-end latency histograms. */
    Tick issueTick = notIssued;

    /** Completion callback; the argument is the loaded value (loads)
     * or the old value (atomics); 0 for stores. */
    std::function<void(std::uint64_t)> onDone;
};

using MemRequestPtr = std::unique_ptr<MemRequest>;

} // namespace ccsvm::coherence

#endif // CCSVM_COHERENCE_MEM_REQUEST_HH
