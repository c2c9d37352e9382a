/**
 * @file
 * Pluggable coherence-protocol policy layer.
 *
 * The paper evaluates "a standard, unoptimized MOESI directory
 * protocol" (Sec. 3.2.2), but protocol choice is a design axis for
 * heterogeneous chips: whether a sole-copy read fill is granted
 * Exclusive, and whether a dirty owner may keep its block on a read
 * (Owned) or must make the home copy clean, change the upgrade and
 * writeback traffic every workload generates. This file factors those
 * decisions out of the L1 and directory controllers into a
 * ProtocolPolicy that both consult, one table entry per protocol:
 *
 *   MOESI  E and O states; dirty owners keep the block on a read
 *          (default; matches the paper and the seed tree exactly)
 *   MESI   E but no O; a read of a dirty block writes it back to the
 *          home so the line becomes clean-shared
 *   MSI    neither E nor O; every read fill is Shared, so a private
 *          read-then-write always pays an explicit upgrade
 *
 * The state machines share all structural transitions (MSHRs, victim
 * buffers, recalls, blocking directory); only the decision points
 * below differ, so the policies are small and exhaustively testable.
 *
 * Protocols are a per-cluster property: the CPU cluster and the MTTOP
 * cluster may each run a different protocol against the same
 * directory. The directory mediates every transaction pair-wise —
 * sole-copy fills follow the *requestor's* policy, and dirty sharing
 * on a forwarded read (the O state) requires it at BOTH ends
 * (pairAllowsDirtySharing below): a MOESI owner read by an MSI
 * cluster writes its data back home exactly as it would under plain
 * MESI/MSI, so the weaker cluster never observes a dirty-shared line.
 */

#ifndef CCSVM_COHERENCE_PROTOCOL_HH
#define CCSVM_COHERENCE_PROTOCOL_HH

#include <array>
#include <string>
#include <string_view>

#include "coherence/msgs.hh"
#include "coherence/types.hh"

namespace ccsvm::coherence
{

// Protocol itself lives in coherence/types.hh so the VM layer's
// region table can name one without pulling in this header.

/** Every selectable protocol, in enum order. The driver's
 * --list-protocols, its usage/error text, the driver ctests' protocol
 * loops and the protocol-parametrized test suites all derive from
 * this table, so adding a protocol extends them all. */
inline constexpr std::array<Protocol, 3> allProtocols = {
    Protocol::MSI, Protocol::MESI, Protocol::MOESI};

/** Lower-case protocol name ("msi", "mesi", "moesi"). */
const char *protocolName(Protocol p);

/** Every protocol name joined with @p sep (usage and error text). */
std::string protocolNameList(std::string_view sep = ", ");

/** Parse a protocol name (case-insensitive); false on unknown. */
bool protocolFromName(std::string_view name, Protocol &out);

/**
 * The protocol-specific transition decisions, consulted by the L1
 * controllers and the directory banks: plain data, one immutable
 * entry per protocol, handed out by protocolPolicy().
 */
class ProtocolPolicy
{
  public:
    constexpr ProtocolPolicy(Protocol kind, bool exclusive,
                             bool dirty_sharing)
        : kind_(kind), exclusive_(exclusive),
          dirtySharing_(dirty_sharing)
    {}

    constexpr Protocol kind() const { return kind_; }

    /** The E state exists: a sole-copy read fill is granted
     * Exclusive, and a later private write upgrades silently. */
    constexpr bool hasExclusiveState() const { return exclusive_; }

    /** The O state exists: a dirty owner answering a read keeps the
     * block (dirty sharing) instead of making the home copy clean. */
    constexpr bool allowsDirtySharing() const { return dirtySharing_; }

    const char *name() const { return protocolName(kind_); }

    /** Directory: response type for a read fill when no other cache
     * holds the block (DataE with an E state, else DataS). Follows
     * the *requestor's* cluster policy: an MSI cluster is never
     * granted E even when the other cluster's protocol has it. */
    MsgType
    soleCopyFill() const
    {
        return exclusive_ ? MsgType::DataE : MsgType::DataS;
    }

  private:
    Protocol kind_;
    bool exclusive_;
    bool dirtySharing_;
};

/** Shared immutable policy instance for @p p. */
const ProtocolPolicy &protocolPolicy(Protocol p);

/** The policy governing a block of @p region held by an L1 of a
 * cluster running @p cluster: the region's override protocol, else
 * the cluster's. */
inline const ProtocolPolicy &
policyFor(Region region, const ProtocolPolicy &cluster)
{
    return region.attr == RegionAttr::ProtocolOverride
               ? protocolPolicy(region.prot)
               : cluster;
}

/**
 * Directory: may a forwarded read leave the line dirty-shared (owner
 * keeps O, home copy stays stale)? Requires the O state at BOTH ends
 * of the transfer — the owner keeps the dirty block, and the
 * requestor's cluster must tolerate reading from a dirty-shared line
 * whose home copy is stale. When either cluster lacks O, the
 * directory falls back to the writeback path: the owner downgrades to
 * S and the requestor carries the dirty data home on its Unblock
 * (counted as sharingWb, split per requestor cluster).
 */
inline bool
pairAllowsDirtySharing(const ProtocolPolicy &owner,
                       const ProtocolPolicy &requestor)
{
    return owner.allowsDirtySharing() && requestor.allowsDirtySharing();
}

/** L1 owner: next state after supplying data for a FwdGetS from
 * stable state @p current (one of E/M/O), given the directory's
 * pair-wise dirty-sharing decision carried on the forward. */
inline CohState
ownerStateOnFwdGetS(CohState current, bool allow_dirty_sharing)
{
    if (allow_dirty_sharing && current != CohState::E)
        return CohState::O;
    return CohState::S;
}

} // namespace ccsvm::coherence

#endif // CCSVM_COHERENCE_PROTOCOL_HH
