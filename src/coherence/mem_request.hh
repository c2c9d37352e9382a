/**
 * @file
 * A core-issued memory request as presented to an L1 controller.
 *
 * Requests are single-block scalar accesses (guest loads/stores/atomics
 * are naturally aligned and at most 8 bytes, so they never straddle a
 * 64-byte block). The L1 performs the functional access on real block
 * data once coherence permission is held and invokes onDone with the
 * read (or pre-RMW) value.
 *
 * The issuer owns the request and keeps it alive until onDone runs: a
 * core thread's request lives in its ThreadContext, which has at most
 * one access in flight. The L1 never copies or frees a request; while
 * one waits (coalesced in an MSHR, behind a victim-buffer eviction or
 * in the overflow queue) the L1 links it through `next`.
 */

#ifndef CCSVM_COHERENCE_MEM_REQUEST_HH
#define CCSVM_COHERENCE_MEM_REQUEST_HH

#include <cstdint>
#include <functional>

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
     * or the old value (atomics); 0 for stores. The L1 moves it out
     * of the request before calling it, and no longer refers to the
     * request after that, so the callback may reuse or free it. */
    std::function<void(std::uint64_t)> onDone;

    /** The L1's link to the next request in the queue this one waits
     * in; meaningless while the request is in no queue. */
    MemRequest *next = nullptr;
};

} // namespace ccsvm::coherence

#endif // CCSVM_COHERENCE_MEM_REQUEST_HH
