/**
 * @file
 * The trace capture + replay subsystem's contract
 * (docs/TRACE_FORMAT.md):
 *
 *  - varint / zigzag primitives round-trip edge values
 *  - the reader rejects bad magic, truncated files, checksum
 *    corruption, out-of-range AMO and protocol bytes, block-straddling
 *    accesses and bytes after End with the documented messages
 *  - shapeMismatch() flags every checked header field, in both
 *    directions, and deliberately ignores the protocol fields
 *  - a capture file is byte-identical at --sim-threads 1 vs 4
 *    (records flush at deterministic window barriers)
 *  - capturing is a pure observer: the capture run's stats dump is
 *    byte-identical to an uncaptured run's
 *  - capture-then-replay reproduces the stats dump byte-identically
 *    for a synth pattern and for matmul, at --sim-threads 1 and 4
 *    (the CI ThreadSanitizer lane runs this suite via the
 *    "concurrent" label)
 *  - decoded streams preserve per-thread ordering (monotone ticks)
 *    and the v1 stream layout (one CPU stream with records).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "system/ccsvm_machine.hh"
#include "workloads/replay/reader.hh"
#include "workloads/replay/replayer.hh"
#include "workloads/replay/trace_format.hh"
#include "workloads/synth/synth.hh"
#include "workloads/workloads.hh"

namespace ccsvm
{
namespace
{

using namespace workloads::replay;

std::string
tmpPath(const std::string &name)
{
    return ::testing::TempDir() + "ccsvm_replay_" + name;
}

// --- encoding primitives --------------------------------------------

TEST(TraceEncoding, VarintRoundTripsEdgeValues)
{
    const std::uint64_t values[] = {
        0, 1, 127, 128, 300, 0xffff, 0x12345678,
        0xffffffffull, 0xffffffffffffffffull};
    for (const std::uint64_t v : values) {
        std::vector<std::uint8_t> buf;
        putVarint(buf, v);
        // Decode by hand (the reader's cursor is file-level; the
        // wire format is plain LEB128).
        std::uint64_t out = 0;
        unsigned shift = 0;
        for (const std::uint8_t b : buf) {
            out |= std::uint64_t(b & 0x7f) << shift;
            shift += 7;
        }
        EXPECT_EQ(out, v);
        EXPECT_LE(buf.size(), 10u);
    }
}

TEST(TraceEncoding, ZigzagRoundTripsAndKeepsSmallDeltasSmall)
{
    const std::int64_t values[] = {0, 1, -1, 63, -64, 4096, -4096,
                                   INT64_MAX, INT64_MIN};
    for (const std::int64_t v : values)
        EXPECT_EQ(unzigzag(zigzag(v)), v);
    EXPECT_EQ(zigzag(0), 0u);
    EXPECT_EQ(zigzag(-1), 1u);
    EXPECT_EQ(zigzag(1), 2u);
    EXPECT_LT(zigzag(-64), 128u) << "small negatives stay 1 byte";
}

// --- malformed-file rejection ---------------------------------------

TEST(TraceReader, RejectsBadMagic)
{
    const std::string path = tmpPath("badmagic.ccsvmt");
    {
        std::ofstream f(path, std::ios::binary);
        // 64 zero bytes: long enough for a header, wrong magic.
        const std::string zeros(64, '\0');
        f.write(zeros.data(), std::streamsize(zeros.size()));
    }
    try {
        readTraceInfo(path);
        FAIL() << "bad magic must throw";
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find("bad magic"),
                  std::string::npos)
            << e.what();
    }
}

TEST(TraceReader, RejectsTruncatedFile)
{
    const std::string path = tmpPath("trunc.ccsvmt");
    {
        std::ofstream f(path, std::ios::binary);
        f.write("CCSVMTRC", 8); // magic only, header cut short
    }
    try {
        readTraceInfo(path);
        FAIL() << "truncated header must throw";
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find("truncated trace"),
                  std::string::npos)
            << e.what();
    }
}

TEST(TraceReader, RejectsUnsupportedVersion)
{
    const std::string path = tmpPath("version.ccsvmt");
    {
        std::vector<std::uint8_t> buf(traceMagic,
                                      traceMagic + 8);
        put32(buf, 99);               // version
        put32(buf, traceHeaderBytes); // header_bytes
        buf.resize(traceHeaderBytes, 0);
        std::ofstream f(path, std::ios::binary);
        f.write(reinterpret_cast<const char *>(buf.data()),
                std::streamsize(buf.size()));
    }
    try {
        readTraceInfo(path);
        FAIL() << "future version must throw";
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what())
                      .find("unsupported trace version 99"),
                  std::string::npos)
            << e.what();
    }
}

// --- range-checked bytes --------------------------------------------

/** A minimal valid trace and the offsets of the bytes the reader
 * range-checks: a protocol-override region, then one CPU stream of an
 * 8-byte Amo at 0x1000 and an 8-byte protocol-override Load 0x38
 * above it. Each checked byte holds the largest valid value, and the
 * Load ends exactly at its block's end. */
struct TinyTrace
{
    std::vector<std::uint8_t> bytes;
    std::size_t regionProtocol = 0;
    std::size_t amoOp = 0;
    std::size_t loadVaDelta = 0;
    std::size_t loadProtocol = 0;
};

TinyTrace
tinyTrace()
{
    constexpr auto moesi =
        static_cast<std::uint8_t>(coherence::Protocol::MOESI);
    TinyTrace t;
    std::vector<std::uint8_t> &b = t.bytes;
    b.assign(traceMagic, traceMagic + 8);
    put32(b, traceVersion);
    put32(b, traceHeaderBytes);
    b.resize(traceHeaderBytes, 0); // the reader checks no shape

    putVarint(b, 1); // regions
    putVarint(b, 1);
    b.push_back('r');
    putVarint(b, 0x1000);
    putVarint(b, 0x1000);
    b.push_back(attrOverride);
    t.regionProtocol = b.size();
    b.push_back(moesi);
    putVarint(b, 0); // premap

    b.push_back(tagStreamDef);
    putVarint(b, 0);
    b.push_back(static_cast<std::uint8_t>(StreamKind::Cpu));
    putVarint(b, 0);
    putVarint(b, 0);

    std::vector<std::uint8_t> rec;
    rec.push_back(packOpcode(RecKind::Amo, 3, attrNone));
    putVarint(rec, 0);
    putVarint(rec, zigzag(0x1000));
    const std::size_t amo_op = rec.size();
    rec.push_back(static_cast<std::uint8_t>(coherence::AmoOp::Max));
    putVarint(rec, 1);
    putVarint(rec, 0);
    rec.push_back(packOpcode(RecKind::Load, 3, attrOverride));
    putVarint(rec, 0);
    const std::size_t load_va = rec.size();
    putVarint(rec, zigzag(0x38));
    const std::size_t load_protocol = rec.size();
    rec.push_back(moesi);

    b.push_back(tagChunk);
    putVarint(b, 0);
    putVarint(b, 2);
    putVarint(b, rec.size());
    t.amoOp = b.size() + amo_op;
    t.loadVaDelta = b.size() + load_va;
    t.loadProtocol = b.size() + load_protocol;
    b.insert(b.end(), rec.begin(), rec.end());

    b.push_back(tagEnd);
    putVarint(b, 2);
    putVarint(b, 1);
    put64(b, 0); // checksum, set by writePatched
    return t;
}

/** Write @p bytes with byte @p off set to @p v and the checksum
 * recomputed; returns the path. */
std::string
writePatched(const std::string &name, std::vector<std::uint8_t> bytes,
             std::size_t off, std::uint8_t v)
{
    bytes[off] = v;
    const std::size_t end = bytes.size() - 8;
    Fnv1a fnv;
    fnv.update(bytes.data(), end);
    for (std::size_t i = 0; i < 8; ++i)
        bytes[end + i] = static_cast<std::uint8_t>(fnv.value() >> (8 * i));
    const std::string path = tmpPath(name);
    std::ofstream f(path, std::ios::binary);
    f.write(reinterpret_cast<const char *>(bytes.data()),
            std::streamsize(bytes.size()));
    return path;
}

TEST(TraceReader, AcceptsEveryByteAtTheTopOfItsRange)
{
    const TinyTrace t = tinyTrace();
    const TraceData d = readTrace(writePatched(
        "tiny.ccsvmt", t.bytes, t.amoOp, t.bytes[t.amoOp]));
    ASSERT_EQ(d.regions.size(), 1u);
    EXPECT_EQ(d.regions[0].protocol, coherence::Protocol::MOESI);
    ASSERT_EQ(d.streams.size(), 1u);
    ASSERT_EQ(d.streams[0].records.size(), 2u);
    const TraceRecord &amo = d.streams[0].records[0];
    const TraceRecord &load = d.streams[0].records[1];
    EXPECT_EQ(amo.op.mem.amoOp, coherence::AmoOp::Max);
    EXPECT_EQ(load.op.va, 0x1038u);
    EXPECT_EQ(load.op.mem.size, 8u);
    EXPECT_EQ(load.attrProtocol,
              static_cast<std::uint8_t>(coherence::Protocol::MOESI));
}

TEST(TraceReader, RejectsOutOfRangeBytes)
{
    const TinyTrace t = tinyTrace();
    const std::uint8_t bad_protocol =
        static_cast<std::uint8_t>(coherence::Protocol::MOESI) + 1;
    struct Case
    {
        const char *name;
        std::size_t off;
        std::uint8_t value;
        const char *what;
    };
    const Case cases[] = {
        {"amo_op", t.amoOp,
         static_cast<std::uint8_t>(coherence::AmoOp::Max) + 1,
         "malformed trace: bad amo op 7"},
        {"region_protocol", t.regionProtocol, bad_protocol,
         "malformed trace: bad protocol 3"},
        {"record_protocol", t.loadProtocol, bad_protocol,
         "malformed trace: bad protocol 3"},
        // The Load moves to 0x1039: its 8 bytes cross 0x1040.
        {"straddle", t.loadVaDelta,
         static_cast<std::uint8_t>(zigzag(0x39)),
         "malformed trace: access straddles a block"},
    };
    for (const Case &c : cases) {
        const std::string path = writePatched(
            std::string("bad_") + c.name + ".ccsvmt", t.bytes, c.off,
            c.value);
        try {
            readTrace(path);
            ADD_FAILURE() << c.name << " must not parse";
        } catch (const std::runtime_error &e) {
            EXPECT_NE(std::string(e.what()).find(c.what),
                      std::string::npos)
                << c.name << ": " << e.what();
        }
    }
}

TEST(TraceReader, RejectsBytesAfterEnd)
{
    const TinyTrace t = tinyTrace();
    const std::string path = writePatched(
        "trailing.ccsvmt", t.bytes, t.amoOp, t.bytes[t.amoOp]);
    {
        std::ofstream f(path, std::ios::binary | std::ios::app);
        f.put('\0');
    }
    try {
        readTrace(path);
        FAIL() << "a byte after End must not parse";
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find(
                      "malformed trace: bytes after End"),
                  std::string::npos)
            << e.what();
    }
}

// --- shape checking -------------------------------------------------

TraceShape
defaultShape()
{
    return shapeOf(system::CcsvmConfig{});
}

TEST(TraceShapeCheck, MatchingShapesProduceNoDiagnostic)
{
    EXPECT_EQ(shapeMismatch(defaultShape(), defaultShape()), "");
}

TEST(TraceShapeCheck, FlagsEveryCheckedField)
{
    struct Case
    {
        void (*tweak)(TraceShape &);
        const char *what;
    };
    const Case cases[] = {
        {[](TraceShape &s) { s.numCpuCores = 2; }, "cpu cores"},
        {[](TraceShape &s) { s.numMttopCores = 5; }, "mttop cores"},
        {[](TraceShape &s) { s.mttopContexts = 64; },
         "mttop contexts"},
        {[](TraceShape &s) { s.blockBytes = 32; },
         "cache line bytes"},
        {[](TraceShape &s) { s.pageBytes = 8192; }, "page bytes"},
        {[](TraceShape &s) { s.framePoolBase <<= 1; },
         "frame pool base"},
        {[](TraceShape &s) { s.physMemBytes /= 2; },
         "physical memory bytes"},
    };
    for (const Case &c : cases) {
        TraceShape t = defaultShape();
        c.tweak(t);
        // Both directions: a smaller trace on a bigger machine and
        // vice versa are equally mismatched.
        EXPECT_NE(shapeMismatch(t, defaultShape()).find(c.what),
                  std::string::npos)
            << shapeMismatch(t, defaultShape());
        EXPECT_NE(shapeMismatch(defaultShape(), t).find(c.what),
                  std::string::npos);
    }
}

TEST(TraceShapeCheck, ProtocolFieldsAreEchoedNotChecked)
{
    TraceShape t = defaultShape();
    t.protocol = 0;
    t.cpuProtocol = 1;
    t.mttopProtocol = 2;
    EXPECT_EQ(shapeMismatch(t, defaultShape()), "")
        << "protocol sweeps over one trace are a feature";
}

TEST(TraceShapeCheck, L2BanksAreEchoedNotChecked)
{
    // Bank count changes the address interleave but not the guest op
    // stream; sweeping it over one trace is allowed.
    TraceShape t = defaultShape();
    t.numL2Banks = 8;
    EXPECT_EQ(shapeMismatch(t, defaultShape()), "");
}

// --- capture + replay, end to end -----------------------------------

workloads::synth::SynthParams
smallFalseShare()
{
    workloads::synth::SynthParams sp;
    sp.pattern = workloads::synth::Pattern::FalseShare;
    sp.iters = 8;
    sp.threads = 8;
    return sp;
}

/** Stats JSON of a synth:false run, capturing iff @p capture_path is
 * non-empty. */
std::string
runSynth(const std::string &capture_path, int sim_threads)
{
    system::CcsvmConfig cfg;
    cfg.captureOut = capture_path;
    cfg.simThreads = sim_threads;
    system::CcsvmMachine m(cfg);
    const workloads::RunResult r =
        workloads::synth::synthXthreads(m, smallFalseShare());
    EXPECT_TRUE(r.correct);
    std::ostringstream ss;
    m.stats().dumpJson(ss);
    return ss.str();
}

std::string
runReplayOf(const std::string &trace_path, int sim_threads)
{
    system::CcsvmConfig cfg;
    cfg.simThreads = sim_threads;
    system::CcsvmMachine m(cfg);
    const workloads::RunResult r = runReplay(m, trace_path);
    EXPECT_TRUE(r.correct);
    std::ostringstream ss;
    m.stats().dumpJson(ss);
    return ss.str();
}

std::string
slurp(const std::string &path)
{
    std::ifstream f(path, std::ios::binary);
    std::ostringstream ss;
    ss << f.rdbuf();
    return ss.str();
}

TEST(TraceCaptureReplay, CaptureIsAPureObserver)
{
    const std::string plain = runSynth("", 1);
    const std::string captured =
        runSynth(tmpPath("observer.ccsvmt"), 1);
    EXPECT_EQ(plain, captured)
        << "capture hooks must not perturb the simulation";
}

TEST(TraceCaptureReplay, CaptureFileIsByteIdenticalAcrossSimThreads)
{
    const std::string p1 = tmpPath("cap1.ccsvmt");
    const std::string p4 = tmpPath("cap4.ccsvmt");
    runSynth(p1, 1);
    runSynth(p4, 4);
    const std::string b1 = slurp(p1);
    ASSERT_FALSE(b1.empty());
    EXPECT_EQ(b1, slurp(p4));
}

TEST(TraceCaptureReplay, SynthStatsAreByteIdenticalOnReplay)
{
    const std::string path = tmpPath("synth.ccsvmt");
    const std::string cap = runSynth(path, 1);
    EXPECT_EQ(cap, runReplayOf(path, 1));
    EXPECT_EQ(cap, runReplayOf(path, 4));
}

TEST(TraceCaptureReplay, MatmulStatsAreByteIdenticalOnReplay)
{
    const std::string path = tmpPath("matmul.ccsvmt");
    std::string cap;
    {
        system::CcsvmConfig cfg;
        cfg.captureOut = path;
        system::CcsvmMachine m(cfg);
        const workloads::RunResult r =
            workloads::matmulXthreads(m, 8);
        EXPECT_TRUE(r.correct);
        std::ostringstream ss;
        m.stats().dumpJson(ss);
        cap = ss.str();
    }
    EXPECT_EQ(cap, runReplayOf(path, 1));
    EXPECT_EQ(cap, runReplayOf(path, 4));
}

TEST(TraceCaptureReplay, ReplayRejectsShapeMismatch)
{
    const std::string path = tmpPath("shape.ccsvmt");
    runSynth(path, 1);
    system::CcsvmConfig cfg;
    cfg.numCpuCores = 2;
    system::CcsvmMachine m(cfg);
    try {
        runReplay(m, path);
        FAIL() << "shape mismatch must throw";
    } catch (const std::runtime_error &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("machine shape"), std::string::npos)
            << what;
        EXPECT_NE(what.find("cpu cores: trace has 4, machine has 2"),
                  std::string::npos)
            << what;
    }
}

TEST(TraceCaptureReplay, ReplayNeedsATraceFile)
{
    system::CcsvmMachine m{system::CcsvmConfig{}};
    EXPECT_THROW(runReplay(m, ""), std::runtime_error);
    EXPECT_THROW(runReplay(m, tmpPath("missing.ccsvmt")),
                 std::runtime_error);
}

// --- decoded-stream structure ---------------------------------------

TEST(TraceStructure, StreamsPreserveOrderingAndV1Layout)
{
    const std::string path = tmpPath("struct.ccsvmt");
    runSynth(path, 1);
    const TraceData t = readTrace(path);

    EXPECT_EQ(t.info.version, traceVersion);
    EXPECT_EQ(shapeMismatch(t.info.shape, defaultShape()), "");

    std::size_t cpu_with_records = 0, mttop_streams = 0;
    std::uint64_t sum = 0;
    for (const TraceStream &s : t.streams) {
        sum += s.records.size();
        if (s.kind == StreamKind::Cpu && !s.records.empty())
            ++cpu_with_records;
        if (s.kind == StreamKind::Mttop) {
            ++mttop_streams;
            EXPECT_FALSE(s.records.empty())
                << "mttop streams only exist for threads that "
                   "recorded ops";
        }
        // Per-thread program order: issue ticks never go backwards.
        for (std::size_t i = 1; i < s.records.size(); ++i)
            EXPECT_GE(s.records[i].tick, s.records[i - 1].tick);
    }
    EXPECT_EQ(cpu_with_records, 1u) << "v1: runMain only";
    EXPECT_GE(mttop_streams, 8u) << "one per launched synth thread";
    EXPECT_EQ(sum, t.totalRecords);

    // The launch record must be on the CPU stream and reference the
    // mttop streams' launch id.
    bool saw_launch = false;
    for (const TraceStream &s : t.streams) {
        if (s.kind != StreamKind::Cpu)
            continue;
        for (const TraceRecord &r : s.records) {
            if (r.op.kind != core::OpKind::MifdWrite)
                continue;
            saw_launch = true;
            EXPECT_GE(r.op.task->lastTid, r.op.task->firstTid);
        }
    }
    EXPECT_TRUE(saw_launch);
}

TEST(TraceStructure, ChecksumDetectsCorruption)
{
    const std::string path = tmpPath("corrupt.ccsvmt");
    runSynth(path, 1);
    std::string bytes = slurp(path);
    ASSERT_GT(bytes.size(), 100u);
    bytes[bytes.size() / 2] ^= 0x40; // flip one payload bit
    const std::string bad = tmpPath("corrupt2.ccsvmt");
    {
        std::ofstream f(bad, std::ios::binary);
        f.write(bytes.data(), std::streamsize(bytes.size()));
    }
    try {
        readTrace(bad);
        FAIL() << "corruption must not parse cleanly";
    } catch (const std::runtime_error &e) {
        // Depending on which byte flips, the damage surfaces as a
        // checksum mismatch or as a structural error; both are
        // loud rejections.
        SUCCEED() << e.what();
    }
}

} // namespace
} // namespace ccsvm
