/**
 * @file
 * Coherence protocol messages.
 *
 * One message struct covers all protocol traffic; the type field
 * selects which other fields are meaningful. Control messages are 8
 * bytes on the wire, data messages 72 (64 B payload + 8 B header),
 * matching common directory-protocol accounting.
 */

#ifndef CCSVM_COHERENCE_MSGS_HH
#define CCSVM_COHERENCE_MSGS_HH

#include <array>
#include <cstdint>

#include "base/types.hh"
#include "coherence/types.hh"
#include "mem/phys_mem.hh"

namespace ccsvm::coherence
{

/** All protocol message types, grouped by direction. */
enum class MsgType : std::uint8_t
{
    // Requests: L1 -> directory.
    GetS,      ///< read permission
    GetM,      ///< write permission
    PutS,      ///< shared-copy eviction notice
    PutOwned,  ///< E/M/O eviction; carries data when dirty
    Bypass,    ///< uncacheable scalar access (op) at the home node

    // Forwards: directory -> L1.
    FwdGetS,   ///< supply data to requestor, keep O/S copy
    FwdGetM,   ///< supply data to requestor, invalidate
    Inv,       ///< invalidate shared copy, ack to ackDest
    Recall,    ///< inclusive-L2 eviction: surrender the block to dir

    // Responses.
    DataS,       ///< shared data (dirty flag set when from an O/M owner)
    DataE,       ///< exclusive clean data grant
    DataM,       ///< modifiable data; ackCount invalidations pending
    GrantM,      ///< dataless write grant (requestor already has data)
    InvAck,      ///< one invalidation done
    PutAck,      ///< eviction acknowledged (possibly stale)
    RecallAck,   ///< shared copy surrendered to dir
    RecallData,  ///< owned copy surrendered to dir, with data
    Unblock,     ///< requestor closes the directory transaction
    BypassResp,  ///< value (load/old) of a completed bypass op
};

const char *msgTypeName(MsgType t);

/** On-wire sizes used for link-bandwidth accounting. */
inline constexpr unsigned ctrlMsgBytes = 8;
inline constexpr unsigned dataMsgBytes = 8 + mem::blockBytes;

/** A coherence protocol message. */
struct CohMsg
{
    MsgType type{};
    Addr blockAddr = invalidAddr;

    /** L1Id of the sending L1, or noL1 when sent by a directory. */
    L1Id sender = noL1;

    /** Original requestor (routing target for forwards and acks). */
    L1Id requestor = noL1;

    /** Invalidation acks the requestor must collect (DataM/GrantM/
     * FwdGetM). */
    int ackCount = 0;

    /** Data payload validity and dirtiness. */
    bool hasData = false;
    bool dirty = false;
    std::array<std::uint8_t, mem::blockBytes> data{};

    /** Unblock: the requestor's final state (S/E/M). */
    CohState finalState = CohState::I;
    /** Unblock after a FwdGetS: previous owner kept a dirty copy
     * (Owned state); the home copy stays stale. */
    bool ownerDirty = false;

    /** FwdGetS: the directory's pair-wise verdict — the owner may
     * keep the block dirty-shared (O) instead of downgrading to S.
     * Requires the O state in both the owner's and the requestor's
     * cluster protocol (pairAllowsDirtySharing). */
    bool allowDirtySharing = false;

    /** DataS from a forwarding owner: it kept the (dirty) block in O,
     * so the requestor must NOT carry the data home on its Unblock.
     * When false and dirty is set, the requestor is responsible for
     * making the home copy clean, whatever its own protocol. */
    bool ownerRetained = false;

    /** GetS/GetM: the requestor's region for this block, so the
     * directory can resolve an override protocol and split its fill/
     * invalidation counters per region class. */
    Region region;

    /** Bypass: the scalar access, performed on the op.size bytes at
     * blockAddr + reqOffset. BypassResp echoes bypassId and carries
     * the load (or pre-RMW) value in op.wdata. */
    std::uint64_t bypassId = 0;
    unsigned reqOffset = 0;
    ScalarOp op;

    unsigned
    wireBytes() const
    {
        // A scalar payload is 8 B of header plus an 8 B operand
        // packet; a bypass read sends its request as a bare header.
        if (type == MsgType::BypassResp ||
            (type == MsgType::Bypass && op.writes()))
            return ctrlMsgBytes + 8;
        return hasData ? dataMsgBytes : ctrlMsgBytes;
    }
};

} // namespace ccsvm::coherence

#endif // CCSVM_COHERENCE_MSGS_HH
