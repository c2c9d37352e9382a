/**
 * @file
 * `ccsvm-trace`: inspect, validate and summarize `.ccsvmt` capture
 * files (docs/TRACE_FORMAT.md) without running a simulation.
 *
 *   ccsvm-trace inspect FILE    header, regions, premap and streams
 *   ccsvm-trace validate FILE   full parse + checksum; exit 0 iff ok
 *   ccsvm-trace stats FILE      record counts by kind / attr / stream
 *
 * Exit codes: 0 ok, 1 invalid or unreadable trace, 2 usage error —
 * the same convention as the ccsvm driver.
 */

#include <cstdio>
#include <cstring>
#include <exception>
#include <map>
#include <string>

#include "coherence/protocol.hh"
#include "coherence/slice_hash.hh"
#include "workloads/replay/reader.hh"

namespace
{

using namespace ccsvm;
using namespace ccsvm::workloads::replay;

int
usage(std::FILE *out)
{
    std::fprintf(out,
                 "usage: ccsvm-trace <inspect|validate|stats> "
                 "FILE.ccsvmt\n"
                 "\n"
                 "  inspect   print the header (machine shape), "
                 "region table,\n"
                 "            premap summary and per-stream record "
                 "counts\n"
                 "  validate  parse the whole file and verify its "
                 "checksum;\n"
                 "            exit 0 iff the trace is well-formed\n"
                 "  stats     record counts by kind, region "
                 "attribute and stream\n");
    return out == stdout ? 0 : 2;
}

const char *
kindName(RecKind k)
{
    switch (k) {
      case RecKind::Load: return "load";
      case RecKind::Store: return "store";
      case RecKind::Amo: return "amo";
      case RecKind::Compute: return "compute";
      case RecKind::Stall: return "stall";
      case RecKind::Launch: return "launch";
    }
    return "?";
}

const char *
attrName(std::uint8_t a)
{
    switch (a) {
      case attrNone: return "none";
      case attrCoherent: return "coherent";
      case attrBypass: return "bypass";
      case attrOverride: return "override";
    }
    return "?";
}

void
printShape(const TraceShape &s)
{
    std::printf("machine shape:\n"
                "  cpu_cores      %u\n"
                "  mttop_cores    %u\n"
                "  mttop_contexts %u\n"
                "  l2_banks       %u\n"
                "  block_bytes    %u\n"
                "  page_bytes     %u\n"
                "  frame_pool     0x%llx\n"
                "  phys_mem       %llu\n"
                "  protocol       %s (cpu %s / mttop %s)\n"
                "  slice_hash     %s\n",
                s.numCpuCores, s.numMttopCores, s.mttopContexts,
                s.numL2Banks, s.blockBytes, s.pageBytes,
                (unsigned long long)s.framePoolBase,
                (unsigned long long)s.physMemBytes,
                coherence::protocolName(
                    static_cast<coherence::Protocol>(s.protocol)),
                coherence::protocolName(
                    static_cast<coherence::Protocol>(s.cpuProtocol)),
                coherence::protocolName(
                    static_cast<coherence::Protocol>(
                        s.mttopProtocol)),
                coherence::sliceHashName(
                    static_cast<coherence::SliceHashKind>(
                        s.sliceHash)));
}

int
inspect(const std::string &path)
{
    const TraceData t = readTrace(path);
    std::printf("%s: .ccsvmt version %u\n", path.c_str(),
                t.info.version);
    printShape(t.info.shape);
    std::printf("regions: %zu\n", t.regions.size());
    for (const vm::MemRegion &r : t.regions) {
        std::string attr = coherence::regionAttrName(r.attr);
        if (r.attr == coherence::RegionAttr::ProtocolOverride)
            attr += std::string(":") +
                    coherence::protocolName(r.protocol);
        std::printf("  %-16s base=0x%llx size=0x%llx attr=%s\n",
                    r.name.c_str(), (unsigned long long)r.base,
                    (unsigned long long)r.size, attr.c_str());
    }
    std::printf("premap: %zu pages\n", t.premap.size());
    std::printf("streams: %zu (%llu records)\n", t.streams.size(),
                (unsigned long long)t.totalRecords);
    for (const TraceStream &s : t.streams) {
        if (s.kind == StreamKind::Cpu) {
            std::printf("  cpu   core=%llu%*s%8zu records\n",
                        (unsigned long long)s.a, 18, "",
                        s.records.size());
        } else {
            std::printf("  mttop launch=%llu tid=%-10llu%8zu "
                        "records\n",
                        (unsigned long long)s.a,
                        (unsigned long long)s.b, s.records.size());
        }
    }
    return 0;
}

int
validate(const std::string &path)
{
    const TraceData t = readTrace(path);
    std::printf("%s: ok (version %u, %zu streams, %llu records)\n",
                path.c_str(), t.info.version, t.streams.size(),
                (unsigned long long)t.totalRecords);
    return 0;
}

int
stats(const std::string &path)
{
    const TraceData t = readTrace(path);
    std::map<RecKind, std::uint64_t> by_kind;
    std::map<std::uint8_t, std::uint64_t> by_attr;
    std::uint64_t cpu_records = 0, mttop_records = 0;
    std::uint64_t mem_bytes = 0;
    Tick first = 0, last = 0;
    bool any = false;
    for (const TraceStream &s : t.streams) {
        (s.kind == StreamKind::Cpu ? cpu_records : mttop_records) +=
            s.records.size();
        for (const TraceRecord &r : s.records) {
            ++by_kind[recKindOf(r.op)];
            if (r.op.kind == core::OpKind::Memory) {
                ++by_attr[r.attr];
                mem_bytes += r.op.mem.size;
            }
            if (!any || r.tick < first)
                first = r.tick;
            if (!any || r.tick > last)
                last = r.tick;
            any = true;
        }
    }
    std::printf("%s: %llu records (%llu cpu, %llu mttop) across %zu "
                "streams\n",
                path.c_str(), (unsigned long long)t.totalRecords,
                (unsigned long long)cpu_records,
                (unsigned long long)mttop_records,
                t.streams.size());
    std::printf("tick span: %llu .. %llu\n", (unsigned long long)first,
                (unsigned long long)last);
    std::printf("by kind:\n");
    for (const auto &[k, n] : by_kind)
        std::printf("  %-8s %llu\n", kindName(k),
                    (unsigned long long)n);
    std::printf("memory ops by region attribute (%llu bytes "
                "touched):\n",
                (unsigned long long)mem_bytes);
    for (const auto &[a, n] : by_attr)
        std::printf("  %-8s %llu\n", attrName(a),
                    (unsigned long long)n);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc == 2 && (!std::strcmp(argv[1], "--help") ||
                      !std::strcmp(argv[1], "-h")))
        return usage(stdout);
    if (argc != 3)
        return usage(stderr);

    const std::string cmd = argv[1];
    const std::string path = argv[2];
    try {
        if (cmd == "inspect")
            return inspect(path);
        if (cmd == "validate")
            return validate(path);
        if (cmd == "stats")
            return stats(path);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "ccsvm-trace: %s: %s\n", path.c_str(),
                     e.what());
        return 1;
    }
    std::fprintf(stderr, "ccsvm-trace: unknown subcommand '%s'\n",
                 cmd.c_str());
    return usage(stderr);
}
