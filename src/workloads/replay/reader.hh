/**
 * @file
 * `.ccsvmt` trace reader: parses a capture file back into decoded,
 * per-stream record lists (docs/TRACE_FORMAT.md). Used by the replay
 * workload, the `ccsvm-trace` tool, and the tests.
 *
 * All parse failures throw std::runtime_error with a distinct,
 * greppable message prefix: "bad magic", "unsupported trace version",
 * "truncated trace", "checksum mismatch", "malformed trace".
 */

#ifndef CCSVM_WORKLOADS_REPLAY_READER_HH
#define CCSVM_WORKLOADS_REPLAY_READER_HH

#include <cstdint>
#include <string>
#include <vector>

#include "core/guest_ops.hh"
#include "vm/page_table.hh"
#include "workloads/replay/trace_format.hh"

namespace ccsvm::workloads::replay
{

/** Decoded trace header. */
struct TraceInfo
{
    std::uint32_t version = 0;
    TraceShape shape;
};

/** One decoded record: the guest op it recorded, at its issue tick.
 * A launch's task carries the recorded thread range, requireAll and
 * args, with the launch id as its captureId; its kernel and process
 * are the replayer's to give. */
struct TraceRecord
{
    Tick tick = 0; ///< absolute issue tick
    core::GuestOp op;
    std::uint8_t attr = attrNone;  ///< AttrCode at capture time
    std::uint8_t attrProtocol = 0; ///< with attrOverride
};

/** One guest thread's record stream. */
struct TraceStream
{
    StreamKind kind = StreamKind::Cpu;
    std::uint64_t a = 0; ///< cpu: core index; mttop: launch id
    std::uint64_t b = 0; ///< cpu: spawn sequence; mttop: thread id
    std::vector<TraceRecord> records;
};

/** A fully parsed trace. */
struct TraceData
{
    TraceInfo info;
    std::vector<vm::MemRegion> regions;
    std::vector<PremapEntry> premap; ///< frame-ascending
    std::vector<TraceStream> streams; ///< in file (StreamDef) order
    std::uint64_t totalRecords = 0;
};

/** Parse only the fixed header (cheap shape check). */
TraceInfo readTraceInfo(const std::string &path);

/** Parse and checksum-verify the whole file. */
TraceData readTrace(const std::string &path);

} // namespace ccsvm::workloads::replay

#endif // CCSVM_WORKLOADS_REPLAY_READER_HH
