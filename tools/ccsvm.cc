/**
 * @file
 * The `ccsvm` simulation driver: build a CCSVM machine from
 * command-line flags (core counts and cache geometry default to the
 * paper's Table 2), run one named workload on it, and report the
 * result — a one-line summary on stdout, optionally the full stats
 * registry as text (--stats) and/or JSON (--json FILE).
 *
 *   ccsvm --workload matmul --n 32 --json out.json
 *   ccsvm --workload barneshut --bodies 128 --steps 2 --stats
 *   ccsvm --workload synth:migratory --iters 64 --synth-threads 8
 *   ccsvm --workload matmul,synth:hot --protocol msi,moesi --jobs 4
 *   ccsvm --list-workloads
 *
 * Every flag is one row of kFlags: its name, argument, help text and
 * setter. The parser, --help, the --list-* flags and the "wants one
 * of" errors all read those rows, so adding a flag is adding a row.
 *
 * Comma lists on --workload, --protocol, --slice-hash and --l2-replace
 * form a sweep grid (workload-major, then the sweeping rows in table
 * order); the points run on --jobs worker threads through
 * sim::SweepRunner, and every output — stdout summaries, --stats
 * text, the JSON file — is emitted in point order, byte-identical
 * for every worker count.
 *
 * Workloads come from the workload registry
 * (src/workloads/registry.hh): the paper's four applications plus the
 * synthetic coherence-traffic patterns (synth:*). The unknown-workload
 * error and --list-workloads enumerate the registry, and a flag that
 * some registered workload consumes but the selected one does not
 * produces a warning on stderr instead of silently doing nothing.
 *
 * The JSON file carries a "sim" summary (ticks, DRAM transactions,
 * validation verdict) plus the complete counter/distribution registry,
 * in the same shape the figure benchmarks emit via CCSVM_BENCH_JSON —
 * one schema for every machine-readable artifact this repo produces.
 */

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "cache/replacer.hh"
#include "coherence/protocol.hh"
#include "coherence/slice_hash.hh"
#include "sim/stats.hh"
#include "sim/sweep.hh"
#include "system/ccsvm_machine.hh"
#include "workloads/registry.hh"
#include "workloads/replay/reader.hh"
#include "workloads/replay/replayer.hh"

namespace
{

using namespace ccsvm;

struct Flag;

struct DriverOptions
{
    const char *argv0 = "ccsvm"; ///< for the usage line of --help
    /** Selected workloads (--workload accepts a comma list; more
     * than one name turns the run into a sweep). */
    std::vector<std::string> workloads = {"matmul"};
    /** The names given to each sweeping flag, in command-line order;
     * main expands them into the grid. An absent flag contributes the
     * config default. */
    std::map<const Flag *, std::vector<std::string>> axes;
    /** Sweep worker threads (--jobs): 0 = hardware concurrency,
     * 1 = the historical sequential order. Only sweeps (more than
     * one grid point) spawn workers at all. */
    unsigned jobs = 0;

    workloads::WorkloadParams params;
    /** Workload-parameter flags the user actually passed, for the
     * ignored-flag warning. */
    std::vector<std::string> setFlags;

    system::CcsvmConfig cfg;

    std::string jsonPath;       ///< empty = no JSON output; "-" = stdout
    std::string traceOut;       ///< empty = no trace file
    std::string traceCategories; ///< --trace-categories value
    bool textStats = false;
    bool verbose = false;
};

/** One point of the sweep grid. */
struct PointSpec
{
    std::string workload;
    const workloads::WorkloadEntry *entry;
    system::CcsvmConfig cfg;
};

/** Everything a point's simulation produced, rendered on the worker
 * so the main thread only concatenates in deterministic point
 * order. */
struct PointOutput
{
    std::string summary;   ///< the one-line stdout summary
    std::string statsText; ///< --stats dump ("" when not requested)
    std::string json;      ///< full JSON doc ("" when no --json)
    std::string trace;     ///< Chrome trace JSON ("" when no --trace-out)
    bool correct = false;
};

/** A flag as its setter sees it. */
struct Arg
{
    const char *flag;  ///< the flag's name, for error messages
    const char *value; ///< its argument; nullptr for a switch
};

/**
 * One command-line flag. A plain row stores its argument through
 * `set`. An enum row instead names its value table (`names`), stores
 * one of those names into a config (`pick`), may have a `--list-*`
 * companion that prints the table, and may sweep: then a comma list
 * makes one grid point per name.
 */
struct Flag
{
    const char *name; ///< nullptr: a --help section heading (`help`)
    const char *arg;  ///< argument placeholder; nullptr: a switch
    const char *help; ///< --help text; '\n' continues on a new line
    void (*set)(DriverOptions &, const Arg &) = nullptr;
    std::string (*names)(std::string_view sep) = nullptr;
    /** False when @p name is not in the value table. */
    bool (*pick)(system::CcsvmConfig &, std::string_view name) = nullptr;
    const char *list = nullptr;
    bool sweeps = false;
};

void usage(const char *argv0, std::FILE *out);

void
listWorkloads()
{
    const auto &reg = workloads::WorkloadRegistry::instance();
    for (const auto &e : reg.entries()) {
        std::string flags;
        for (const auto &f : e.flags)
            flags += (flags.empty() ? "" : " ") + f;
        std::printf("  %-16s %s%s%s%s\n", e.name.c_str(),
                    e.summary.c_str(), flags.empty() ? "" : "  [",
                    flags.c_str(), flags.empty() ? "" : "]");
    }
}

/**
 * The argument of @p a as a decimal integer in [@p lo, the largest
 * T], where T is the type of the field it lands in. Anything else —
 * a sign, a non-digit, a value T cannot hold — exits 2 naming the
 * flag, so "-1" cannot wrap to a huge count and a narrowing store
 * cannot truncate. @p lo is 1 for counts and sizes, 0 where zero
 * means something (--seed, --steps, --dram-ns, --rpw, ...).
 */
template <typename T>
T
integer(const Arg &a, T lo)
{
    const char *const end = a.value + std::strlen(a.value);
    std::uint64_t v = 0;
    const auto [stop, err] = std::from_chars(a.value, end, v);
    if (err == std::errc::invalid_argument || stop != end ||
        (err == std::errc() && v < std::uint64_t(lo))) {
        std::fprintf(stderr, "ccsvm: %s needs a %s integer, got '%s'\n",
                     a.flag, lo > 0 ? "positive" : "non-negative",
                     a.value);
        std::exit(2);
    }
    constexpr T hi = std::numeric_limits<T>::max();
    if (err != std::errc() || v > std::uint64_t(hi)) {
        std::fprintf(stderr,
                     "ccsvm: %s is out of range (at most %llu), got "
                     "'%s'\n",
                     a.flag, static_cast<unsigned long long>(hi),
                     a.value);
        std::exit(2);
    }
    return static_cast<T>(v);
}

/** Parse a byte count: 0x-hex or decimal, optional K/M/G suffix. */
Addr
parseBytes(const char *flag, const std::string &value)
{
    char *end = nullptr;
    const unsigned long long v =
        std::strtoull(value.c_str(), &end, 0);
    Addr bytes = v;
    if (end && end[0] && !end[1]) {
        switch (std::tolower(static_cast<unsigned char>(end[0]))) {
          case 'k': bytes = v * 1024ull; end = nullptr; break;
          case 'm': bytes = v * 1024ull * 1024; end = nullptr; break;
          case 'g':
            bytes = v * 1024ull * 1024 * 1024;
            end = nullptr;
            break;
        }
    }
    if (value.empty() || (end && *end)) {
        std::fprintf(stderr,
                     "ccsvm: %s needs a byte count (hex/decimal, "
                     "optional K/M/G), got '%s'\n",
                     flag, value.c_str());
        std::exit(2);
    }
    return bytes;
}

/**
 * Parse one --region value "name:base:size:attr" into a MemRegion.
 * attr is coherent, bypass, readmostly (= MESI override), or a
 * protocol name (= override under that protocol). Exits 2 on a
 * malformed spec, an unknown attribute, or a misaligned region.
 */
vm::MemRegion
parseRegion(const std::string &spec)
{
    auto fail = [&spec](const char *why) {
        std::fprintf(stderr,
                     "ccsvm: --region wants name:base:size:attr "
                     "(%s), got '%s'\n",
                     why, spec.c_str());
        std::exit(2);
    };

    std::vector<std::string> parts;
    std::size_t pos = 0;
    while (parts.size() < 4) {
        const std::size_t colon = parts.size() == 3
                                      ? std::string::npos
                                      : spec.find(':', pos);
        parts.push_back(spec.substr(
            pos,
            colon == std::string::npos ? std::string::npos
                                       : colon - pos));
        if (colon == std::string::npos)
            break;
        pos = colon + 1;
    }
    if (parts.size() != 4 || parts[0].empty() || parts[3].empty())
        fail("four colon-separated fields");

    vm::MemRegion r;
    r.name = parts[0];
    r.base = parseBytes("--region base", parts[1]);
    r.size = parseBytes("--region size", parts[2]);

    const std::string &attr = parts[3];
    coherence::Protocol prot;
    if (attr == "coherent") {
        r.attr = coherence::RegionAttr::Coherent;
    } else if (attr == "bypass") {
        r.attr = coherence::RegionAttr::Bypass;
    } else if (attr == "readmostly") {
        // Read-mostly data wants clean-exclusive fills without
        // dirty-sharing residue: a MESI override.
        r.attr = coherence::RegionAttr::ProtocolOverride;
        r.protocol = coherence::Protocol::MESI;
    } else if (coherence::protocolFromName(attr, prot)) {
        r.attr = coherence::RegionAttr::ProtocolOverride;
        r.protocol = prot;
    } else {
        std::fprintf(stderr,
                     "ccsvm: --region attribute wants coherent, "
                     "bypass, readmostly or one of %s, got '%s'\n",
                     coherence::protocolNameList(", ").c_str(),
                     attr.c_str());
        std::exit(2);
    }

    if (r.size == 0 || r.base % mem::pageBytes != 0 ||
        r.size % mem::pageBytes != 0) {
        std::fprintf(stderr,
                     "ccsvm: --region '%s' must be page-aligned "
                     "(base=0x%llx size=0x%llx, page=%u)\n",
                     r.name.c_str(), (unsigned long long)r.base,
                     (unsigned long long)r.size,
                     unsigned(mem::pageBytes));
        std::exit(2);
    }
    return r;
}

/** Split a comma-separated flag value; rejects empty elements. */
std::vector<std::string>
splitList(const char *flag, const std::string &value)
{
    std::vector<std::string> out;
    std::size_t pos = 0;
    while (pos <= value.size()) {
        const std::size_t comma = value.find(',', pos);
        const std::string item = value.substr(
            pos, comma == std::string::npos ? std::string::npos
                                            : comma - pos);
        if (item.empty()) {
            std::fprintf(stderr,
                         "ccsvm: %s has an empty element in '%s'\n",
                         flag, value.c_str());
            std::exit(2);
        }
        out.push_back(item);
        if (comma == std::string::npos)
            break;
        pos = comma + 1;
    }
    return out;
}

double
parseDouble(const Arg &a)
{
    char *end = nullptr;
    const double v = std::strtod(a.value, &end);
    if (!a.value[0] || *end) {
        std::fprintf(stderr, "ccsvm: %s needs a number, got '%s'\n",
                     a.flag, a.value);
        std::exit(2);
    }
    return v;
}

/**
 * Every flag the driver accepts, in --help order. The sweeping rows'
 * order is also the grid's: protocol, then hash, then replacer. The
 * setters are generic lambdas; each converts to the Flag::set or
 * Flag::pick signature, so `o` is the DriverOptions, `a` the Arg and
 * `c` the CcsvmConfig.
 */
const Flag kFlags[] = {
    {nullptr, nullptr, "workload selection:"},
    {"--workload", "NAMES",
     "workload(s) to run; a comma list sweeps\n"
     "(default matmul; --list-workloads names them)",
     [](auto &o, auto &a) { o.workloads = splitList(a.flag, a.value); }},
    {"--list-workloads", nullptr,
     "list every workload with its summary and flags",
     [](auto &, auto &) {
         listWorkloads();
         std::exit(0);
     }},

    {nullptr, nullptr,
     "parallel sweeps (comma lists on --workload, --protocol,\n"
     "--slice-hash and --l2-replace form a grid; see README\n"
     "\"Parallel sweeps\"):"},
    {"--jobs", "N",
     "run sweep points on N worker threads\n"
     "(default: hardware concurrency; 1 = sequential\n"
     "order; results are deterministic either way)",
     [](auto &o, auto &a) { o.jobs = integer<unsigned>(a, 0); }},

    {nullptr, nullptr,
     "workload parameters (each consumed only by some workloads;\n"
     "setting one the selected workload ignores warns):"},
    {"--n", "N", "matrix dimension for matmul/apsp/spmm (default 32)",
     [](auto &o, auto &a) { o.params.n = integer<unsigned>(a, 1); }},
    {"--bodies", "N", "barneshut body count (default 256)",
     [](auto &o, auto &a) { o.params.bh.bodies = integer<unsigned>(a, 1); }},
    {"--steps", "N", "barneshut time steps (default 2)",
     [](auto &o, auto &a) { o.params.bh.steps = integer<unsigned>(a, 0); }},
    {"--density", "F", "spmm non-zero fraction (default 0.01)",
     [](auto &o, auto &a) { o.params.spmm.density = parseDouble(a); }},
    {"--seed", "N",
     "input seed for matmul, barneshut, spmm and\n"
     "the synth:ptrchase rings",
     [](auto &o, auto &a) {
         auto &p = o.params;
         p.bh.seed = p.spmm.seed = p.synth.seed = p.matmulSeed =
             integer<std::uint64_t>(a, 0);
     }},
    {"--iters", "N", "synth main-loop iterations per thread (default 64)",
     [](auto &o, auto &a) {
         o.params.synth.iters = integer<unsigned>(a, 1);
     }},
    {"--synth-threads", "N", "synth MTTOP traffic threads (default 16)",
     [](auto &o, auto &a) {
         o.params.synth.threads = integer<unsigned>(a, 1);
     }},
    {"--rpw", "N", "synth extra reads per write (default 4)",
     [](auto &o, auto &a) {
         o.params.synth.readsPerWrite = integer<unsigned>(a, 0);
     }},
    {"--footprint-kb", "K",
     "synth stream/ptrchase total footprint (default 64)",
     [](auto &o, auto &a) {
         o.params.synth.footprintBytes =
             Addr(integer<unsigned>(a, 1)) * 1024;
     }},
    {"--stride", "B",
     "synth stream/ptrchase access stride bytes (default 64)",
     [](auto &o, auto &a) {
         o.params.synth.strideBytes = integer<unsigned>(a, 1);
     }},
    {"--sharing", "N",
     "synth sharing degree: threads/line (false),\n"
     "lines (readmostly), lines/thread (conflict)",
     [](auto &o, auto &a) {
         o.params.synth.sharingDegree = integer<unsigned>(a, 1);
     }},

    {nullptr, nullptr,
     "region-based coherence (see README \"Region-based coherence\"):"},
    {"--region", "N:B:S:A",
     "declare virtual region named N at page-aligned base B,\n"
     "size S (0x-hex or decimal, K/M suffixes) with attribute A:\n"
     "coherent | bypass | readmostly | a protocol name\n"
     "(protocol name = coherent under that protocol; repeatable)",
     [](auto &o, auto &a) {
         o.cfg.regions.push_back(parseRegion(a.value));
     }},
    {"--region-hints", nullptr,
     "apply the workload's default region annotations\n"
     "(synth:stream buffer -> bypass, matmul A/B -> readmostly)",
     [](auto &o, auto &) { o.params.regionHints = true; }},

    {nullptr, nullptr, "machine configuration (defaults = paper Table 2):"},
    {.name = "--protocol", .arg = "P[,P..]",
     .help = "chip-wide coherence protocol (default moesi)",
     .names = coherence::protocolNameList,
     .pick = [](auto &c, auto v) {
         return coherence::protocolFromName(v, c.protocol);
     },
     .list = "--list-protocols", .sweeps = true},
    {.name = "--cpu-protocol", .arg = "P",
     .help = "CPU-cluster protocol (default: --protocol)",
     .names = coherence::protocolNameList,
     .pick = [](auto &c, auto v) {
         return coherence::protocolFromName(v, c.cpuProtocol.emplace());
     }},
    {.name = "--mttop-protocol", .arg = "P",
     .help = "MTTOP-cluster protocol (default: --protocol)",
     .names = coherence::protocolNameList,
     .pick = [](auto &c, auto v) {
         return coherence::protocolFromName(v, c.mttopProtocol.emplace());
     }},
    {"--cpu-cores", "N", "in-order CPU cores (default 4)",
     [](auto &o, auto &a) { o.cfg.numCpuCores = integer<int>(a, 1); }},
    {"--mttop-cores", "N", "MTTOP cores (default 10)",
     [](auto &o, auto &a) { o.cfg.numMttopCores = integer<int>(a, 1); }},
    {"--mttop-contexts", "N", "thread contexts per MTTOP core (default 128)",
     [](auto &o, auto &a) {
         o.cfg.mttop.numContexts = integer<unsigned>(a, 1);
     }},
    {"--l2-banks", "N", "L2/directory bank count (default 4)",
     [](auto &o, auto &a) { o.cfg.numL2Banks = integer<int>(a, 1); }},
    {"--cpu-l1-kb", "K", "CPU L1 size (default 64)",
     [](auto &o, auto &a) {
         o.cfg.cpuL1.sizeBytes = Addr(integer<unsigned>(a, 1)) * 1024;
     }},
    {"--mttop-l1-kb", "K", "MTTOP L1 size (default 16)",
     [](auto &o, auto &a) {
         o.cfg.mttopL1.sizeBytes = Addr(integer<unsigned>(a, 1)) * 1024;
     }},
    {"--l2-bank-kb", "K", "per-bank L2 size (default 1024)",
     [](auto &o, auto &a) {
         o.cfg.l2.bankSizeBytes = Addr(integer<unsigned>(a, 1)) * 1024;
     }},
    {.name = "--slice-hash", .arg = "H[,H..]",
     .help = "home-slice (bank-select) hash (default mod;\n"
             "see README \"Sharded home banks\")",
     .names = coherence::sliceHashNameList,
     .pick = [](auto &c, auto v) {
         return coherence::sliceHashFromName(v, c.sliceHash);
     },
     .list = "--list-slice-hashes", .sweeps = true},
    {.name = "--l2-replace", .arg = "R[,R..]",
     .help = "L2/directory replacement policy (default lru)",
     .names = cache::replacerNameList,
     .pick = [](auto &c, auto v) {
         return cache::replacerFromName(v, c.l2Replace);
     },
     .list = "--list-replacers", .sweeps = true},
    {"--dram-ns", "N", "flat DRAM latency (default 100)",
     [](auto &o, auto &a) {
         o.cfg.dram.accessLatency = Tick(integer<unsigned>(a, 0)) * tickNs;
     }},
    {"--no-swmr", nullptr, "disable the SWMR checker (faster host run)",
     [](auto &o, auto &) { o.cfg.swmrChecks = false; }},
    {"--sim-threads", "N",
     "host threads for the partitioned event engine\n"
     "(default: CCSVM_SIM_THREADS env or 1; 0 = hardware\n"
     "concurrency; stats are identical at any value;\n"
     "see README \"Parallel engine\")",
     [](auto &o, auto &a) { o.cfg.simThreads = integer<int>(a, 0); }},

    {nullptr, nullptr, "output:"},
    {"--json", "FILE",
     "write summary + full stats registry as JSON\n"
     "(FILE '-' = stdout; summaries/--stats move to stderr)",
     [](auto &o, auto &a) { o.jsonPath = a.value; }},
    {"--stats", nullptr, "dump the stats registry as text on stdout",
     [](auto &o, auto &) { o.textStats = true; }},
    {"--verbose", nullptr, "keep simulator log output",
     [](auto &o, auto &) { o.verbose = true; }},
    {"--help", nullptr, "this text (also -h)",
     [](auto &o, auto &) {
         usage(o.argv0, stdout);
         std::exit(0);
     }},

    {nullptr, nullptr, "observability (see README \"Observability\"):"},
    {"--trace-out", "FILE",
     "write a Chrome trace-event JSON (single point only;\n"
     "load in Perfetto / chrome://tracing)",
     [](auto &o, auto &a) { o.traceOut = a.value; }},
    {"--trace-categories", "LIST",
     "comma list of coh,noc,vm,kernel,engine or all\n"
     "(default all when --trace-out is set)",
     [](auto &o, auto &a) {
         unsigned mask = 0;
         if (!sim::Tracer::parseCategories(a.value, mask)) {
             std::fprintf(stderr,
                          "ccsvm: --trace-categories wants a comma list "
                          "of coh, noc, vm, kernel, engine or all, got "
                          "'%s'\n",
                          a.value);
             std::exit(2);
         }
         o.traceCategories = a.value;
     }},
    {"--sample-interval", "TICKS",
     "sample counter totals every TICKS into a \"series\"\n"
     "section of the JSON (0 = off)",
     [](auto &o, auto &a) { o.cfg.sampleInterval = integer<Tick>(a, 0); }},

    {nullptr, nullptr,
     "trace capture & replay (see README \"Trace capture & replay\"):"},
    {"--capture-out", "FILE",
     "record the guest memory-op stream to a .ccsvmt\n"
     "trace (single point only; format in docs/TRACE_FORMAT.md)",
     [](auto &o, auto &a) { o.cfg.captureOut = a.value; }},
    {"--trace", "FILE", "the .ccsvmt trace --workload replay re-issues",
     [](auto &o, auto &a) { o.params.replayTrace = a.value; }},
};

/** Print one --help entry: @p flag in a 20-column field (alone on its
 * line when wider), then @p text, each '\n' in it continuing on a new
 * line at the text's indent. */
void
printHelp(std::FILE *out, const std::string &flag, const std::string &text)
{
    const std::string indent(22, ' ');
    std::string entry = "  " + flag;
    entry += flag.size() <= 18 ? std::string(20 - flag.size(), ' ')
                               : "\n" + indent;
    for (const char c : text) {
        entry += c;
        if (c == '\n')
            entry += indent;
    }
    std::fprintf(out, "%s\n", entry.c_str());
}

void
usage(const char *argv0, std::FILE *out)
{
    std::fprintf(out, "usage: %s [options]\n", argv0);
    for (const Flag &f : kFlags) {
        if (!f.name) {
            std::fprintf(out, "\n%s\n", f.help);
            continue;
        }
        std::string text = f.help;
        if (f.names) {
            text += "\none of " + f.names(" | ") +
                    (f.sweeps ? "; a comma list sweeps" : "");
        }
        printHelp(out, f.arg ? std::string(f.name) + " " + f.arg : f.name,
                  text);
        if (f.list) {
            printHelp(out, f.list,
                      std::string("list every ") + f.name +
                          " value, one per line");
        }
    }
}

/** True when some registered workload consumes @p flag: the flags
 * the ignored-flag warning watches. */
bool
workloadFlag(std::string_view flag)
{
    const auto &entries = workloads::WorkloadRegistry::instance().entries();
    return std::any_of(entries.begin(), entries.end(),
                       [flag](const workloads::WorkloadEntry &e) {
                           return e.consumesFlag(flag);
                       });
}

DriverOptions
parseArgs(int argc, char **argv)
{
    DriverOptions o;
    o.argv0 = argv[0];
    for (int i = 1; i < argc; ++i) {
        const std::string_view arg =
            std::strcmp(argv[i], "-h") == 0 ? "--help" : argv[i];
        const Flag *f = std::find_if(
            std::begin(kFlags), std::end(kFlags), [arg](const Flag &r) {
                return r.name && (arg == r.name || (r.list && arg == r.list));
            });
        if (f == std::end(kFlags)) {
            std::fprintf(stderr,
                         "ccsvm: unknown option '%s' (run %s --help "
                         "for the full flag list)\n",
                         argv[i], argv[0]);
            usage(argv[0], stderr);
            std::exit(2);
        }
        if (f->list && arg == f->list) {
            std::printf("%s\n", f->names("\n").c_str());
            std::exit(0);
        }
        const char *value = nullptr;
        if (f->arg) {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "ccsvm: %s needs an argument\n",
                             f->name);
                std::exit(2);
            }
            value = argv[++i];
        }
        if (workloadFlag(f->name))
            o.setFlags.push_back(f->name);
        if (f->set) {
            f->set(o, {f->name, value});
            continue;
        }
        std::vector<std::string> names =
            f->sweeps ? splitList(f->name, value)
                      : std::vector<std::string>{value};
        for (const std::string &name : names) {
            if (!f->pick(o.cfg, name)) {
                std::fprintf(stderr,
                             "ccsvm: %s wants one of %s, got '%s'\n",
                             f->name, f->names(", ").c_str(),
                             name.c_str());
                std::exit(2);
            }
        }
        if (f->sweeps)
            o.axes[f] = std::move(names);
    }
    // Tracing is only armed when there is somewhere to write it;
    // --trace-categories alone is almost certainly a mistake, so
    // warn rather than pay the tracing cost silently.
    if (!o.traceOut.empty()) {
        o.cfg.traceCategories =
            o.traceCategories.empty() ? "all" : o.traceCategories;
    } else if (!o.traceCategories.empty()) {
        std::fprintf(stderr,
                     "ccsvm: warning: --trace-categories without "
                     "--trace-out; tracing stays off\n");
    }
    // Overlapping --region declarations are a user error: fail fast
    // with a CLI diagnostic instead of tripping the simulator's
    // region-table assert mid-construction.
    for (std::size_t i = 0; i < o.cfg.regions.size(); ++i) {
        for (std::size_t j = i + 1; j < o.cfg.regions.size(); ++j) {
            const vm::MemRegion &x = o.cfg.regions[i];
            const vm::MemRegion &y = o.cfg.regions[j];
            if (x.base < y.base + y.size && y.base < x.base + x.size) {
                std::fprintf(stderr,
                             "ccsvm: --region '%s' overlaps --region "
                             "'%s'\n",
                             y.name.c_str(), x.name.c_str());
                std::exit(2);
            }
        }
    }
    // Cache geometry flags must yield a power-of-two set count per
    // array; fail fast with a CLI diagnostic naming the flag instead
    // of tripping the cache array's internal assert mid-construction.
    const auto check_sets = [](const char *flag, Addr size_bytes,
                               unsigned assoc) {
        const Addr sets = size_bytes / mem::blockBytes / assoc;
        if (sets == 0 || (sets & (sets - 1)) != 0) {
            std::fprintf(
                stderr,
                "ccsvm: %s gives %llu sets (%llu bytes / %u-byte "
                "lines / %u ways); the set count must be a "
                "power of two >= 1\n",
                flag, (unsigned long long)sets,
                (unsigned long long)size_bytes,
                unsigned(mem::blockBytes), assoc);
            std::exit(2);
        }
    };
    check_sets("--l2-bank-kb", o.cfg.l2.bankSizeBytes, o.cfg.l2.assoc);
    check_sets("--cpu-l1-kb", o.cfg.cpuL1.sizeBytes, o.cfg.cpuL1.assoc);
    check_sets("--mttop-l1-kb", o.cfg.mttopL1.sizeBytes,
               o.cfg.mttopL1.assoc);
    if (o.cfg.numL2Banks < 1) {
        std::fprintf(stderr,
                     "ccsvm: --l2-banks %d: the home-slice hash "
                     "needs at least one bank\n",
                     o.cfg.numL2Banks);
        std::exit(2);
    }
    return o;
}


/**
 * Resolve every selected workload in the registry; exits with the
 * full name list on an unknown name. Warns (through the registry's
 * caller-supplied sink) about workload-parameter flags a selection
 * will ignore.
 */
std::vector<const workloads::WorkloadEntry *>
selectWorkloads(const DriverOptions &o)
{
    const auto &reg = workloads::WorkloadRegistry::instance();
    std::vector<const workloads::WorkloadEntry *> out;
    for (const auto &name : o.workloads) {
        const workloads::WorkloadEntry *e = reg.find(name);
        if (!e) {
            std::fprintf(stderr,
                         "ccsvm: unknown workload '%s' (want one of: "
                         "%s)\n",
                         name.c_str(), reg.nameList().c_str());
            std::exit(2);
        }
        workloads::WorkloadRegistry::warnIgnoredFlags(
            *e, o.setFlags, [](const std::string &msg) {
                std::fprintf(stderr, "ccsvm: warning: %s\n",
                             msg.c_str());
            });
        out.push_back(e);
    }
    return out;
}

/**
 * Render one point's full JSON document (the historical single-run
 * schema: params, machine, sim summary, full stats registry). Sweep
 * mode embeds one such document per point; the single-point path
 * writes exactly one, byte-identical to the pre-sweep driver.
 */
void
renderPointJson(std::ostream &os, const DriverOptions &o,
                const PointSpec &spec,
                system::CcsvmMachine &m,
                const workloads::RunResult &r)
{
    const workloads::WorkloadEntry &entry = *spec.entry;
    const workloads::WorkloadParams &p = o.params;
    // The parameter groups default to different seeds; the registry
    // entry knows which one (if any) the workload consumed.
    const std::uint64_t seed = entry.seed ? entry.seed(p) : 0;
    os << "{\n"
       << "  \"workload\": \"" << sim::jsonEscape(spec.workload)
       << "\",\n"
       << "  \"params\": {\"n\": " << p.n
       << ", \"bodies\": " << p.bh.bodies
       << ", \"steps\": " << p.bh.steps
       << ", \"density\": " << sim::jsonNumber(p.spmm.density)
       << ", \"seed\": " << seed
       << ",\n             \"iters\": " << p.synth.iters
       << ", \"synth_threads\": " << p.synth.threads
       << ", \"rpw\": " << p.synth.readsPerWrite
       << ", \"footprint_bytes\": " << p.synth.footprintBytes
       << ", \"stride\": " << p.synth.strideBytes
       << ", \"sharing\": " << p.synth.sharingDegree
       << "},\n"
       << "  \"machine\": {\"protocol\": \""
       << (m.cpuProtocol() == m.mttopProtocol()
               ? coherence::protocolName(m.cpuProtocol())
               : "heterogeneous")
       << "\", \"cpu_protocol\": \""
       << coherence::protocolName(m.cpuProtocol())
       << "\", \"mttop_protocol\": \""
       << coherence::protocolName(m.mttopProtocol())
       << "\", \"cpu_cores\": " << spec.cfg.numCpuCores
       << ", \"mttop_cores\": " << spec.cfg.numMttopCores
       << ", \"mttop_contexts\": " << spec.cfg.mttop.numContexts
       << ", \"l2_banks\": " << spec.cfg.numL2Banks
       << ", \"cpu_l1_bytes\": " << spec.cfg.cpuL1.sizeBytes
       << ", \"mttop_l1_bytes\": " << spec.cfg.mttopL1.sizeBytes
       << ", \"l2_bank_bytes\": " << spec.cfg.l2.bankSizeBytes
       << ", \"slice_hash\": \""
       << coherence::sliceHashName(spec.cfg.sliceHash)
       << "\", \"l2_replace\": \""
       << cache::replacerName(spec.cfg.l2Replace)
       << "\", \"sim_threads\": "
       << system::resolveSimThreads(spec.cfg.simThreads)
       << ",\n              \"region_hints\": "
       << (p.regionHints ? "true" : "false") << ", \"regions\": [";
    for (std::size_t i = 0; i < spec.cfg.regions.size(); ++i) {
        const vm::MemRegion &reg = spec.cfg.regions[i];
        std::string attr = coherence::regionAttrName(reg.attr);
        if (reg.attr == coherence::RegionAttr::ProtocolOverride)
            attr += std::string(":") +
                    coherence::protocolName(reg.protocol);
        os << (i ? ", " : "") << "{\"name\": \""
           << sim::jsonEscape(reg.name) << "\", \"base\": " << reg.base
           << ", \"size\": " << reg.size << ", \"attr\": \"" << attr
           << "\"}";
    }
    os << "]},\n"
       << "  \"sim\": {\"ticks\": " << r.ticks
       << ", \"ticks_no_init\": " << r.ticksNoInit
       << ", \"dram_accesses\": " << r.dramAccesses
       << ", \"correct\": " << (r.correct ? "true" : "false")
       << "},\n";
    if (spec.cfg.sampleInterval > 0) {
        // Time series: cumulative counter totals at each interval
        // boundary. Only present when sampling is on, so default
        // JSON output is byte-identical to the sampling-less driver.
        const std::vector<system::CcsvmMachine::Sample> &samples =
            m.samples();
        os << "  \"series\": {\"interval\": " << spec.cfg.sampleInterval
           << ", \"samples\": [";
        for (std::size_t i = 0; i < samples.size(); ++i) {
            const system::CcsvmMachine::Sample &s = samples[i];
            os << (i ? ",\n    " : "\n    ") << "{\"t\": " << s.t
               << ", \"dram\": " << s.dram
               << ", \"l1_hits\": " << s.l1Hits
               << ", \"l1_misses\": " << s.l1Misses
               << ", \"noc_packets\": " << s.nocPackets
               << ", \"noc_bytes\": " << s.nocBytes
               << ", \"page_faults\": " << s.pageFaults << "}";
        }
        os << (samples.empty() ? "]" : "\n  ]") << "},\n";
    }
    os << "  \"stats\": ";
    m.stats().dumpJson(os, "  ");
    os << "\n}";
}

/**
 * Simulate one grid point and render everything it produces into
 * strings. Safe to call from a sweep worker: the machine is local,
 * and nothing here touches stdout/stderr or shared driver state — the
 * main thread emits the strings in point order afterwards.
 */
PointOutput
runPoint(const DriverOptions &o, const PointSpec &spec)
{
    system::CcsvmMachine m(spec.cfg);
    const workloads::RunResult r = spec.entry->run(m, o.params);

    // Mirror the run summary into the registry so every consumer of
    // the stats dump — text or JSON — sees the headline numbers next
    // to the component counters.
    m.stats().counter("sim.ticks", "simulated ticks (ps)") += r.ticks;
    m.stats().counter("sim.dramAccesses",
                      "off-chip DRAM transactions in the measured "
                      "region") += r.dramAccesses;

    // Homogeneous runs keep the historical single-name spelling;
    // mixed pairs print both sides.
    const std::string proto_str =
        m.cpuProtocol() == m.mttopProtocol()
            ? coherence::protocolName(m.cpuProtocol())
            : std::string("cpu:") +
                  coherence::protocolName(m.cpuProtocol()) +
                  "/mttop:" +
                  coherence::protocolName(m.mttopProtocol());
    char line[256];
    std::snprintf(line, sizeof line,
                  "ccsvm: workload=%s protocol=%s ticks=%llu "
                  "sim_ms=%.3f dram=%llu correct=%s\n",
                  spec.workload.c_str(), proto_str.c_str(),
                  (unsigned long long)r.ticks,
                  static_cast<double>(r.ticks) /
                      static_cast<double>(tickMs),
                  (unsigned long long)r.dramAccesses,
                  r.correct ? "yes" : "NO");

    PointOutput out;
    out.summary = line;
    out.correct = r.correct;
    if (o.textStats) {
        std::ostringstream ss;
        m.dumpStats(ss);
        out.statsText = ss.str();
    }
    if (!o.jsonPath.empty()) {
        std::ostringstream ss;
        renderPointJson(ss, o, spec, m, r);
        out.json = ss.str();
    }
    if (!o.traceOut.empty()) {
        std::ostringstream ss;
        m.stats().tracer().writeJson(ss);
        out.trace = ss.str();
    }
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    const DriverOptions o = parseArgs(argc, argv);
    const std::vector<const workloads::WorkloadEntry *> entries =
        selectWorkloads(o);
    if (!o.verbose)
        setQuiet(true);

    // The workload x protocol x slice-hash x replacer grid: workload
    // outermost, then each sweeping flag in table order. A flag not
    // given contributes one config-default point, so a run without
    // sweep flags (or with single values) is the historical driver.
    std::vector<system::CcsvmConfig> cfgs = {o.cfg};
    for (const Flag &f : kFlags) {
        const auto axis = o.axes.find(&f);
        if (axis == o.axes.end())
            continue;
        std::vector<system::CcsvmConfig> grid;
        for (const system::CcsvmConfig &c : cfgs) {
            for (const std::string &name : axis->second) {
                grid.push_back(c);
                f.pick(grid.back(), name);
            }
        }
        cfgs = std::move(grid);
    }
    std::vector<PointSpec> points;
    for (std::size_t wi = 0; wi < o.workloads.size(); ++wi) {
        for (const system::CcsvmConfig &c : cfgs)
            points.push_back({o.workloads[wi], entries[wi], c});
    }

    // A transaction trace of a whole sweep would interleave unrelated
    // machines into one timeline; keep the feature single-point.
    if (!o.traceOut.empty() && points.size() > 1) {
        std::fprintf(stderr,
                     "ccsvm: --trace-out traces a single run; drop "
                     "the sweep axes (%zu points selected)\n",
                     points.size());
        return 2;
    }
    // Same story for op-stream capture: one trace file holds one run.
    if (!o.cfg.captureOut.empty() && points.size() > 1) {
        std::fprintf(stderr,
                     "ccsvm: --capture-out records a single run; drop "
                     "the sweep axes (%zu points selected)\n",
                     points.size());
        return 2;
    }

    // Validate replay points before simulating anything: a missing,
    // corrupt or shape-mismatched trace is a CLI error (exit 2 with a
    // diagnostic), not a mid-sweep exception.
    for (const PointSpec &spec : points) {
        if (spec.workload != "replay")
            continue;
        if (o.params.replayTrace.empty()) {
            std::fprintf(stderr,
                         "ccsvm: --workload replay needs --trace "
                         "FILE\n");
            return 2;
        }
        try {
            const workloads::replay::TraceInfo info =
                workloads::replay::readTraceInfo(o.params.replayTrace);
            const std::string err = workloads::replay::shapeMismatch(
                info.shape, workloads::replay::shapeOf(spec.cfg));
            if (!err.empty()) {
                std::fprintf(stderr,
                             "ccsvm: trace '%s' does not match the "
                             "configured machine shape: %s\n",
                             o.params.replayTrace.c_str(),
                             err.c_str());
                return 2;
            }
        } catch (const std::exception &e) {
            std::fprintf(stderr, "ccsvm: cannot read trace '%s': %s\n",
                         o.params.replayTrace.c_str(), e.what());
            return 2;
        }
    }

    // Simulate — on this thread for a single point (byte-identical to
    // the pre-sweep driver), through the sweep runner for a grid. The
    // runner returns results in point order whatever --jobs is, so
    // every byte below is independent of worker count.
    std::vector<PointOutput> results;
    if (points.size() == 1) {
        results.push_back(runPoint(o, points[0]));
    } else {
        std::vector<std::function<PointOutput()>> tasks;
        for (const PointSpec &spec : points)
            tasks.emplace_back(
                [&o, &spec]() { return runPoint(o, spec); });
        const sim::SweepRunner runner(o.jobs);
        results = runner.map<PointOutput>(tasks);
    }

    // --json - reserves stdout for the JSON document: the human-facing
    // summaries and --stats text move to stderr so `ccsvm ... | jq`
    // just works.
    const bool json_stdout = o.jsonPath == "-";
    std::FILE *const human = json_stdout ? stderr : stdout;
    bool all_correct = true;
    for (const PointOutput &res : results) {
        std::fputs(res.summary.c_str(), human);
        if (o.textStats)
            std::fputs(res.statsText.c_str(), human);
        all_correct = all_correct && res.correct;
    }

    if (!o.jsonPath.empty()) {
        std::ofstream file;
        if (!json_stdout) {
            file.open(o.jsonPath);
            if (!file) {
                std::fprintf(stderr, "ccsvm: cannot open %s\n",
                             o.jsonPath.c_str());
                return 1;
            }
        }
        std::ostream &os = json_stdout
                               ? static_cast<std::ostream &>(std::cout)
                               : file;
        if (results.size() == 1) {
            os << results[0].json << "\n";
        } else {
            // Sweep schema: the per-point documents, unchanged, under
            // "points". Deliberately no worker-count metadata: the
            // file must be byte-identical for every --jobs value.
            os << "{\n  \"sweep\": {\"points\": "
               << results.size() << "},\n  \"points\": [\n";
            for (std::size_t i = 0; i < results.size(); ++i) {
                os << results[i].json
                   << (i + 1 < results.size() ? ",\n" : "\n");
            }
            os << "]\n}\n";
        }
        if (!os.flush()) {
            std::fprintf(stderr, "ccsvm: short write to %s\n",
                         o.jsonPath.c_str());
            return 1;
        }
    }

    if (!o.traceOut.empty()) {
        std::ofstream os(o.traceOut);
        if (!os) {
            std::fprintf(stderr, "ccsvm: cannot open %s\n",
                         o.traceOut.c_str());
            return 1;
        }
        os << results[0].trace;
        if (!os.flush()) {
            std::fprintf(stderr, "ccsvm: short write to %s\n",
                         o.traceOut.c_str());
            return 1;
        }
    }

    return all_correct ? 0 : 1;
}
