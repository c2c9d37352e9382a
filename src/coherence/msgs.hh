/**
 * @file
 * Coherence protocol messages.
 *
 * One message struct covers all protocol traffic: a 16-byte header
 * and one 64-byte payload, the data block or a bypass op, which the
 * type selects. A message is a plain 80-byte value; the network
 * carries it, with the controller that receives it, inside the
 * delivery each hop holds, so sending one allocates nothing. Control
 * messages are 8 bytes on the wire, data messages 72 (64 B payload +
 * 8 B header), matching common directory-protocol accounting.
 */

#ifndef CCSVM_COHERENCE_MSGS_HH
#define CCSVM_COHERENCE_MSGS_HH

#include <array>
#include <cstdint>
#include <memory>
#include <type_traits>

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

/** The payload of a Bypass message: the scalar access, performed on
 * the op.size bytes at blockAddr + reqOffset. A BypassResp echoes
 * bypassId and carries the load (or pre-RMW) value in op.wdata. */
struct BypassOp
{
    std::uint64_t bypassId = 0;
    unsigned reqOffset = 0;
    ScalarOp op;
};

/** A coherence protocol message. */
struct CohMsg
{
    Addr blockAddr = invalidAddr;
    MsgType type{};

    // L1 ids take one byte: a chip has at most 32 L1s (a directory's
    // sharer mask, Directory::maxL1s).

    /** L1Id of the sending L1, or noL1 when sent by a directory. */
    std::int8_t sender = noL1;

    /** Original requestor (routing target for forwards and acks). */
    std::int8_t requestor = noL1;

    /** Invalidation acks the requestor must collect (DataM/GrantM/
     * FwdGetM). */
    std::uint8_t ackCount = 0;

    /** Unblock: the requestor's final state (S/E/M). */
    CohState finalState = CohState::I;

    /** GetS/GetM: the requestor's region for this block, so the
     * directory can resolve an override protocol and split its fill/
     * invalidation counters per region class. */
    Region region;

    /** The payload is the data block; dirty says it is modified. */
    bool hasData : 1 = false;
    bool dirty : 1 = false;

    /** Unblock after a FwdGetS: previous owner kept a dirty copy
     * (Owned state); the home copy stays stale. */
    bool ownerDirty : 1 = false;

    /** FwdGetS: the directory's pair-wise verdict — the owner may
     * keep the block dirty-shared (O) instead of downgrading to S.
     * Requires the O state in both the owner's and the requestor's
     * cluster protocol (pairAllowsDirtySharing). */
    bool allowDirtySharing : 1 = false;

    /** DataS from a forwarding owner: it kept the (dirty) block in O,
     * so the requestor must NOT carry the data home on its Unblock.
     * When false and dirty is set, the requestor is responsible for
     * making the home copy clean, whatever its own protocol. */
    bool ownerRetained : 1 = false;

    /** The payload: data when hasData, bypass in a Bypass or
     * BypassResp (made active by setBypass, never by writing through
     * it while data is). */
    union
    {
        std::array<std::uint8_t, mem::blockBytes> data;
        BypassOp bypass;
    };

    /** A message starts with a zeroed data block. (A default member
     * initializer on data would say the same, but GCC 12 then deletes
     * this constructor.) */
    CohMsg() : data{} {}

    /** Make @p b this message's payload (Bypass, BypassResp). */
    void setBypass(const BypassOp &b) { std::construct_at(&bypass, b); }

    unsigned
    wireBytes() const
    {
        // A scalar payload is 8 B of header plus an 8 B operand
        // packet; a bypass read sends its request as a bare header.
        if (type == MsgType::BypassResp ||
            (type == MsgType::Bypass && bypass.op.writes()))
            return ctrlMsgBytes + 8;
        return hasData ? dataMsgBytes : ctrlMsgBytes;
    }
};

static_assert(sizeof(CohMsg) <= 80, "a message is an 80-byte value");
static_assert(std::is_trivially_copyable_v<CohMsg>,
              "a message is copied as bytes from hop to hop");

} // namespace ccsvm::coherence

#endif // CCSVM_COHERENCE_MSGS_HH
