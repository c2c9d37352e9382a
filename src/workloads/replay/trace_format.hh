/**
 * @file
 * The `.ccsvmt` trace format: shared constants, the machine-shape
 * header, and the byte-level encoding primitives used by the capture
 * writer (capture.hh), the reader (reader.hh) and the ccsvm-trace
 * tool. docs/TRACE_FORMAT.md is the normative specification; this
 * header is its implementation twin — change either and you must
 * change both.
 *
 * Layout (all multi-byte integers little-endian):
 *
 *   header     fixed 64 bytes: magic "CCSVMTRC", version, machine
 *              shape (core counts, contexts, block/page size, frame
 *              pool) and echoed protocols
 *   regions    the traced process's region table at capture time
 *   premap     the pages mapped before guest execution started,
 *              sorted by physical frame (= allocation order)
 *   records    tagged blocks: StreamDef / Chunk / End. Chunks carry
 *              delta-encoded per-stream op records; End carries record
 *              totals and an FNV-1a checksum of every preceding byte.
 */

#ifndef CCSVM_WORKLOADS_REPLAY_TRACE_FORMAT_HH
#define CCSVM_WORKLOADS_REPLAY_TRACE_FORMAT_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "base/logging.hh"
#include "base/types.hh"
#include "coherence/types.hh"
#include "core/guest_ops.hh"

namespace ccsvm::workloads::replay
{

inline constexpr char traceMagic[8] = {'C', 'C', 'S', 'V',
                                       'M', 'T', 'R', 'C'};
inline constexpr std::uint32_t traceVersion = 1;
/** Size of the fixed header (bytes); readers skip to this offset so a
 * later version can grow the header without breaking old fields. */
inline constexpr std::uint32_t traceHeaderBytes = 64;

/** Record kinds (low 3 bits of the opcode byte). */
enum class RecKind : std::uint8_t
{
    Load = 0,
    Store = 1,
    Amo = 2,
    Compute = 3,
    Stall = 4,
    Launch = 5, ///< MIFD write syscall (CPU streams only)
};

/** The record kind of a memory access: Load, Store and Amo are
 * numbered like coherence::ScalarOp::Kind's Read, Write and Amo. */
constexpr RecKind
memoryRecKind(coherence::ScalarOp::Kind k)
{
    return static_cast<RecKind>(k);
}

/** The access kind of a Load, Store or Amo record. */
constexpr coherence::ScalarOp::Kind
memoryOpKind(RecKind k)
{
    return static_cast<coherence::ScalarOp::Kind>(k);
}

static_assert(memoryRecKind(coherence::ScalarOp::Kind::Read) ==
                  RecKind::Load &&
              memoryRecKind(coherence::ScalarOp::Kind::Write) ==
                  RecKind::Store &&
              memoryRecKind(coherence::ScalarOp::Kind::Amo) ==
                  RecKind::Amo);

/** The record kind of guest op @p op; a HostWait has none. */
inline RecKind
recKindOf(const core::GuestOp &op)
{
    switch (op.kind) {
      case core::OpKind::Memory: return memoryRecKind(op.mem.kind);
      case core::OpKind::Compute: return RecKind::Compute;
      case core::OpKind::Stall: return RecKind::Stall;
      case core::OpKind::MifdWrite: return RecKind::Launch;
      case core::OpKind::HostWait: break;
    }
    ccsvm_panic("trace capture does not support HostWait ops; run "
                "this workload without --capture-out");
}

/** Region-attribute code (bits 5-6 of the opcode byte). */
enum AttrCode : std::uint8_t
{
    attrNone = 0,     ///< address outside every declared region
    attrCoherent = 1, ///< explicit coherent region
    attrBypass = 2,
    attrOverride = 3, ///< protocol override; a protocol byte follows
};

/** Stream kinds for StreamDef blocks. */
enum class StreamKind : std::uint8_t
{
    Cpu = 0,   ///< a = CPU core index, b = spawn sequence number
    Mttop = 1, ///< a = launch id, b = thread id
};

/** Tags of the record blocks that follow the premap section. */
enum Tag : std::uint8_t
{
    tagStreamDef = 1,
    tagChunk = 2,
    tagEnd = 3,
};

/**
 * The machine shape a trace was captured on. The replayer rejects a
 * trace whose shape differs from the configured machine (exit 2 at
 * the driver); the three protocol fields are echoed for inspection
 * but deliberately NOT part of the reject set — replaying a fixed
 * stimulus under a different protocol is the point of trace-driven
 * evaluation (stats byte-identity is only guaranteed when the full
 * configuration matches, see docs/TRACE_FORMAT.md).
 */
struct TraceShape
{
    std::uint32_t numCpuCores = 0;
    std::uint32_t numMttopCores = 0;
    std::uint32_t mttopContexts = 0;
    std::uint32_t numL2Banks = 0;
    std::uint32_t blockBytes = 0;
    std::uint32_t pageBytes = 0;
    std::uint64_t framePoolBase = 0;
    std::uint64_t physMemBytes = 0;
    std::uint8_t protocol = 0;      ///< echoed, not checked
    std::uint8_t cpuProtocol = 0;   ///< echoed, not checked
    std::uint8_t mttopProtocol = 0; ///< echoed, not checked
    /** Home-slice hash (SliceHashKind) at capture time; echoed, not
     * checked, exactly like the protocol fields — a fixed stimulus may
     * be replayed under any hash. Occupies a formerly-reserved header
     * byte, so a pre-hash trace reads back 0 (= mod, the only hash
     * that existed then) and the version number is unchanged. */
    std::uint8_t sliceHash = 0;
};

/**
 * First difference between a trace's shape and a machine's, as a
 * human-readable diagnostic; empty when the trace fits the machine.
 * Protocol fields are ignored (see TraceShape).
 */
std::string shapeMismatch(const TraceShape &trace,
                          const TraceShape &machine);

/** One pre-mapped page: the pages present before guest execution.
 * Entries are stored sorted by frame, which (bump allocation, no
 * frees before the guest runs) is exactly the original host-side
 * mapping order — replay re-allocates in this order so the frame
 * allocator evolves identically. */
struct PremapEntry
{
    std::uint64_t vpn = 0; ///< virtual page number (va >> pageShift)
    std::uint64_t frame = 0;
    bool writable = false;
};

// --- byte-level primitives ------------------------------------------

/** LEB128-style base-128 varint (unsigned). */
inline void
putVarint(std::vector<std::uint8_t> &out, std::uint64_t v)
{
    while (v >= 0x80) {
        out.push_back(static_cast<std::uint8_t>(v) | 0x80);
        v >>= 7;
    }
    out.push_back(static_cast<std::uint8_t>(v));
}

/** Zigzag-fold a signed delta so small magnitudes stay small. */
inline std::uint64_t
zigzag(std::int64_t v)
{
    return (static_cast<std::uint64_t>(v) << 1) ^
           static_cast<std::uint64_t>(v >> 63);
}

inline std::int64_t
unzigzag(std::uint64_t v)
{
    return static_cast<std::int64_t>(v >> 1) ^
           -static_cast<std::int64_t>(v & 1);
}

inline void
put32(std::vector<std::uint8_t> &out, std::uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

inline void
put64(std::vector<std::uint8_t> &out, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

/** FNV-1a over every byte written before the End tag; the End block
 * carries the value so `ccsvm-trace validate` detects corruption. */
class Fnv1a
{
  public:
    void
    update(const void *data, std::size_t len)
    {
        const auto *p = static_cast<const std::uint8_t *>(data);
        for (std::size_t i = 0; i < len; ++i) {
            h_ ^= p[i];
            h_ *= 0x100000001b3ull;
        }
    }

    std::uint64_t value() const { return h_; }

  private:
    std::uint64_t h_ = 0xcbf29ce484222325ull;
};

/** Pack an opcode byte: kind | size-log2 | region-attr code. */
inline std::uint8_t
packOpcode(RecKind kind, unsigned size_log2, std::uint8_t attr)
{
    return static_cast<std::uint8_t>(
        static_cast<unsigned>(kind) | (size_log2 << 3) |
        (static_cast<unsigned>(attr) << 5));
}

} // namespace ccsvm::workloads::replay

#endif // CCSVM_WORKLOADS_REPLAY_TRACE_FORMAT_HH
