#include "workloads/replay/reader.hh"

#include <cstring>
#include <fstream>
#include <stdexcept>

#include "mem/phys_mem.hh"

namespace ccsvm::workloads::replay
{

namespace
{

/** Bounds-checked cursor over the in-memory file image. */
class Cursor
{
  public:
    Cursor(const std::uint8_t *data, std::size_t len)
        : data_(data), len_(len)
    {}

    std::size_t pos() const { return pos_; }
    std::size_t remaining() const { return len_ - pos_; }

    void
    need(std::size_t n) const
    {
        if (remaining() < n)
            throw std::runtime_error("truncated trace");
    }

    std::uint8_t
    u8()
    {
        need(1);
        return data_[pos_++];
    }

    std::uint32_t
    u32()
    {
        need(4);
        std::uint32_t v = 0;
        for (int i = 0; i < 4; ++i)
            v |= std::uint32_t(data_[pos_ + i]) << (8 * i);
        pos_ += 4;
        return v;
    }

    std::uint64_t
    u64()
    {
        need(8);
        std::uint64_t v = 0;
        for (int i = 0; i < 8; ++i)
            v |= std::uint64_t(data_[pos_ + i]) << (8 * i);
        pos_ += 8;
        return v;
    }

    std::uint64_t
    varint()
    {
        std::uint64_t v = 0;
        unsigned shift = 0;
        for (;;) {
            const std::uint8_t b = u8();
            if (shift >= 64)
                throw std::runtime_error("malformed trace: "
                                         "varint too long");
            v |= std::uint64_t(b & 0x7f) << shift;
            if (!(b & 0x80))
                return v;
            shift += 7;
        }
    }

    std::string
    str(std::size_t n)
    {
        need(n);
        std::string s(reinterpret_cast<const char *>(data_ + pos_),
                      n);
        pos_ += n;
        return s;
    }

    void
    skip(std::size_t n)
    {
        need(n);
        pos_ += n;
    }

  private:
    const std::uint8_t *data_;
    std::size_t len_;
    std::size_t pos_ = 0;
};

std::vector<std::uint8_t>
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        throw std::runtime_error("cannot open trace file '" + path +
                                 "'");
    std::vector<std::uint8_t> bytes(
        (std::istreambuf_iterator<char>(in)),
        std::istreambuf_iterator<char>());
    return bytes;
}

TraceInfo
parseHeader(Cursor &c)
{
    c.need(traceHeaderBytes);
    TraceInfo info;
    char magic[sizeof(traceMagic)];
    for (char &ch : magic)
        ch = static_cast<char>(c.u8());
    if (std::memcmp(magic, traceMagic, sizeof(traceMagic)) != 0)
        throw std::runtime_error("bad magic: not a .ccsvmt trace");
    info.version = c.u32();
    if (info.version != traceVersion) {
        throw std::runtime_error(
            "unsupported trace version " +
            std::to_string(info.version) + " (reader supports " +
            std::to_string(traceVersion) + ")");
    }
    const std::uint32_t header_bytes = c.u32();
    if (header_bytes < traceHeaderBytes)
        throw std::runtime_error("malformed trace: header too small");
    TraceShape &s = info.shape;
    s.numCpuCores = c.u32();
    s.numMttopCores = c.u32();
    s.mttopContexts = c.u32();
    s.numL2Banks = c.u32();
    s.blockBytes = c.u32();
    s.pageBytes = c.u32();
    s.framePoolBase = c.u64();
    s.physMemBytes = c.u64();
    s.protocol = c.u8();
    s.cpuProtocol = c.u8();
    s.mttopProtocol = c.u8();
    // Formerly reserved; pre-hash traces carry 0 here, which decodes
    // to mod — the only hash those traces could have been captured
    // under.
    s.sliceHash = c.u8();
    // Reserved tail of the fixed header (and any version-compatible
    // extension up to headerBytes).
    c.skip(header_bytes - c.pos());
    return info;
}

coherence::RegionAttr
attrFromCode(std::uint8_t code)
{
    switch (code) {
      case attrCoherent: return coherence::RegionAttr::Coherent;
      case attrBypass: return coherence::RegionAttr::Bypass;
      case attrOverride: return coherence::RegionAttr::ProtocolOverride;
      default:
        throw std::runtime_error("malformed trace: bad region attr");
    }
}

/** A protocol byte; one that names no coherence::Protocol is
 * rejected. */
std::uint8_t
protocolByte(Cursor &c)
{
    const std::uint8_t p = c.u8();
    if (p > static_cast<std::uint8_t>(coherence::Protocol::MOESI))
        throw std::runtime_error("malformed trace: bad protocol " +
                                 std::to_string(p));
    return p;
}

/** Per-file-stream decode state persisting across chunks. */
struct StreamState
{
    Tick prevTick = 0;
    std::uint64_t prevVa = 0;
};

TraceRecord
decodeRecord(Cursor &c, StreamState &st)
{
    TraceRecord r;
    const std::uint8_t opcode = c.u8();
    const unsigned kind_bits = opcode & 0x7;
    if (kind_bits > static_cast<unsigned>(RecKind::Launch))
        throw std::runtime_error("malformed trace: bad record kind");
    const auto kind = static_cast<RecKind>(kind_bits);
    const unsigned size_log2 = (opcode >> 3) & 0x3;
    r.attr = (opcode >> 5) & 0x3;

    st.prevTick += c.varint();
    r.tick = st.prevTick;

    core::GuestOp &op = r.op;
    switch (kind) {
      case RecKind::Load:
      case RecKind::Store:
      case RecKind::Amo: {
        op.kind = core::OpKind::Memory;
        coherence::ScalarOp &access = op.mem;
        access.kind = memoryOpKind(kind);
        access.size = 1u << size_log2;
        st.prevVa += static_cast<std::uint64_t>(unzigzag(c.varint()));
        op.va = st.prevVa;
        // The L1 and the home bank perform an access within one block.
        if ((op.va & mem::blockOffsetMask) + access.size > mem::blockBytes)
            throw std::runtime_error("malformed trace: access "
                                     "straddles a block");
        if (r.attr == attrOverride)
            r.attrProtocol = protocolByte(c);
        if (kind == RecKind::Store)
            access.wdata = c.varint();
        if (kind == RecKind::Amo) {
            const std::uint8_t amo_op = c.u8();
            // Max is the last AmoOp.
            if (amo_op > static_cast<std::uint8_t>(coherence::AmoOp::Max))
                throw std::runtime_error("malformed trace: bad amo op " +
                                         std::to_string(amo_op));
            access.amoOp = static_cast<coherence::AmoOp>(amo_op);
            access.operand = c.varint();
            access.operand2 = c.varint();
        }
        break;
      }
      case RecKind::Compute:
        op.kind = core::OpKind::Compute;
        op.computeCount = c.varint();
        break;
      case RecKind::Stall:
        op.kind = core::OpKind::Stall;
        op.stallTicks = c.varint();
        break;
      case RecKind::Launch: {
        op.kind = core::OpKind::MifdWrite;
        auto task = std::make_shared<core::TaskDescriptor>();
        task->captureId = c.varint();
        task->firstTid = static_cast<ThreadId>(c.varint());
        task->lastTid =
            task->firstTid + static_cast<ThreadId>(c.varint());
        task->requireAll = c.u8() != 0;
        task->args = c.varint();
        op.task = std::move(task);
        break;
      }
    }
    return r;
}

} // namespace

TraceInfo
readTraceInfo(const std::string &path)
{
    const std::vector<std::uint8_t> bytes = slurp(path);
    Cursor c(bytes.data(), bytes.size());
    return parseHeader(c);
}

TraceData
readTrace(const std::string &path)
{
    const std::vector<std::uint8_t> bytes = slurp(path);
    Cursor c(bytes.data(), bytes.size());

    TraceData t;
    t.info = parseHeader(c);

    const std::uint64_t num_regions = c.varint();
    for (std::uint64_t i = 0; i < num_regions; ++i) {
        vm::MemRegion mr;
        mr.name = c.str(c.varint());
        mr.base = c.varint();
        mr.size = c.varint();
        mr.attr = attrFromCode(c.u8());
        mr.protocol = static_cast<coherence::Protocol>(protocolByte(c));
        t.regions.push_back(std::move(mr));
    }

    const std::uint64_t num_premap = c.varint();
    std::uint64_t prev_frame = t.info.shape.framePoolBase;
    std::uint64_t prev_vpn = 0;
    for (std::uint64_t i = 0; i < num_premap; ++i) {
        PremapEntry e;
        e.frame = prev_frame + c.varint();
        e.vpn = prev_vpn +
                static_cast<std::uint64_t>(unzigzag(c.varint()));
        e.writable = c.u8() != 0;
        prev_frame = e.frame;
        prev_vpn = e.vpn;
        t.premap.push_back(e);
    }

    std::vector<StreamState> states;
    bool saw_end = false;
    std::uint64_t end_records = 0;
    std::uint64_t end_streams = 0;
    while (!saw_end) {
        const std::size_t tag_pos = c.pos();
        const std::uint8_t tag = c.u8();
        switch (tag) {
          case tagStreamDef: {
            const std::uint64_t id = c.varint();
            if (id != t.streams.size())
                throw std::runtime_error(
                    "malformed trace: stream ids out of order");
            TraceStream s;
            const std::uint8_t kind = c.u8();
            if (kind >
                static_cast<std::uint8_t>(StreamKind::Mttop))
                throw std::runtime_error(
                    "malformed trace: bad stream kind");
            s.kind = static_cast<StreamKind>(kind);
            s.a = c.varint();
            s.b = c.varint();
            t.streams.push_back(std::move(s));
            states.emplace_back();
            break;
          }
          case tagChunk: {
            const std::uint64_t id = c.varint();
            if (id >= t.streams.size())
                throw std::runtime_error(
                    "malformed trace: chunk for undefined stream");
            const std::uint64_t num_records = c.varint();
            const std::uint64_t byte_len = c.varint();
            const std::size_t chunk_end = [&] {
                c.need(byte_len);
                return c.pos() + byte_len;
            }();
            TraceStream &s = t.streams[id];
            StreamState &st = states[id];
            for (std::uint64_t i = 0; i < num_records; ++i)
                s.records.push_back(decodeRecord(c, st));
            if (c.pos() != chunk_end)
                throw std::runtime_error(
                    "malformed trace: chunk length mismatch");
            t.totalRecords += num_records;
            break;
          }
          case tagEnd: {
            end_records = c.varint();
            end_streams = c.varint();
            // The checksum covers everything up to and including
            // the End counts.
            Fnv1a fnv;
            fnv.update(bytes.data(), c.pos());
            const std::uint64_t want = c.u64();
            if (fnv.value() != want)
                throw std::runtime_error("checksum mismatch: trace "
                                         "file is corrupt");
            saw_end = true;
            break;
          }
          default:
            throw std::runtime_error(
                "malformed trace: unknown tag " +
                std::to_string(tag) + " at offset " +
                std::to_string(tag_pos));
        }
    }
    if (end_records != t.totalRecords ||
        end_streams != t.streams.size())
        throw std::runtime_error(
            "malformed trace: End counts disagree with body");
    if (c.remaining() != 0)
        throw std::runtime_error("malformed trace: bytes after End");
    return t;
}

std::string
shapeMismatch(const TraceShape &trace, const TraceShape &machine)
{
    const auto diff = [](const char *what, std::uint64_t got,
                         std::uint64_t want) {
        return std::string(what) + ": trace has " +
               std::to_string(got) + ", machine has " +
               std::to_string(want);
    };
    if (trace.numCpuCores != machine.numCpuCores)
        return diff("cpu cores", trace.numCpuCores,
                    machine.numCpuCores);
    if (trace.numMttopCores != machine.numMttopCores)
        return diff("mttop cores", trace.numMttopCores,
                    machine.numMttopCores);
    if (trace.mttopContexts != machine.mttopContexts)
        return diff("mttop contexts", trace.mttopContexts,
                    machine.mttopContexts);
    if (trace.blockBytes != machine.blockBytes)
        return diff("cache line bytes", trace.blockBytes,
                    machine.blockBytes);
    if (trace.pageBytes != machine.pageBytes)
        return diff("page bytes", trace.pageBytes,
                    machine.pageBytes);
    if (trace.framePoolBase != machine.framePoolBase)
        return diff("frame pool base", trace.framePoolBase,
                    machine.framePoolBase);
    if (trace.physMemBytes != machine.physMemBytes)
        return diff("physical memory bytes", trace.physMemBytes,
                    machine.physMemBytes);
    // numL2Banks and the protocol fields are echoed, not checked:
    // replaying a fixed stimulus under a different protocol or bank
    // count is the point of trace-driven evaluation.
    return {};
}

} // namespace ccsvm::workloads::replay
