/**
 * @file
 * Workload registrations. To add a workload: append one entry here
 * (name, summary, consumed flags, factory) — the driver's dispatch,
 * --list-workloads and ignored-flag warning pick it up automatically.
 * Every consumed flag must be a driver flag; the
 * ccsvm_driver_unknown_workload ctest checks --help documents it.
 */

#include "workloads/registry.hh"

#include "workloads/replay/replayer.hh"

namespace ccsvm::workloads
{

WorkloadRegistry::WorkloadRegistry()
{
    entries_.push_back(
        {"matmul", "dense matrix multiply (paper Fig. 5/9)",
         {"--n", "--region-hints", "--seed"},
         [](system::CcsvmMachine &m, const WorkloadParams &p) {
             return matmulXthreads(m, p.n, p.regionHints,
                                   p.matmulSeed);
         },
         [](const WorkloadParams &p) { return p.matmulSeed; }});
    entries_.push_back(
        {"apsp",
         "all-pairs shortest path, barrier per iteration (Fig. 6)",
         {"--n"},
         [](system::CcsvmMachine &m, const WorkloadParams &p) {
             return apspXthreads(m, p.n);
         },
         {}});
    entries_.push_back(
        {"barneshut", "Barnes-Hut n-body (paper Fig. 7)",
         {"--bodies", "--steps", "--seed"},
         [](system::CcsvmMachine &m, const WorkloadParams &p) {
             return barnesHutXthreads(m, p.bh);
         },
         [](const WorkloadParams &p) { return p.bh.seed; }});
    entries_.push_back(
        {"spmm", "sparse matmul with mttop_malloc (paper Fig. 8)",
         {"--n", "--density", "--seed"},
         [](system::CcsvmMachine &m, const WorkloadParams &p) {
             SpmmParams sp = p.spmm;
             sp.n = p.n;
             return spmmXthreads(m, sp);
         },
         [](const WorkloadParams &p) { return p.spmm.seed; }});

    entries_.push_back(
        {"replay",
         "re-issue a captured .ccsvmt op stream "
         "(docs/TRACE_FORMAT.md)",
         {"--trace"},
         [](system::CcsvmMachine &m, const WorkloadParams &p) {
             return replay::runReplay(m, p.replayTrace);
         },
         {}});

    // The synthetic coherence-traffic patterns, one entry each so a
    // pattern is a first-class --workload name (synth:padded, ...).
    for (const synth::Pattern pat : synth::allPatterns) {
        std::vector<std::string> flags = {"--iters",
                                          "--synth-threads"};
        switch (pat) {
          case synth::Pattern::Padded:
          case synth::Pattern::Hot:
          case synth::Pattern::Migratory:
            flags.push_back("--rpw");
            break;
          case synth::Pattern::FalseShare:
          case synth::Pattern::ReadMostly:
            flags.push_back("--rpw");
            flags.push_back("--sharing");
            break;
          case synth::Pattern::ProdCons:
            // An odd thread count runs the leftover thread through
            // the private-line loop, which consumes --rpw.
            flags.push_back("--rpw");
            break;
          case synth::Pattern::Stream:
            flags.push_back("--footprint-kb");
            flags.push_back("--stride");
            flags.push_back("--region-hints");
            break;
          case synth::Pattern::PtrChase:
            flags.push_back("--footprint-kb");
            flags.push_back("--stride");
            flags.push_back("--seed");
            break;
          case synth::Pattern::Conflict:
            // --sharing = conflicting lines per thread; the stride is
            // derived from the machine's L2 geometry, not a flag.
            flags.push_back("--sharing");
            break;
        }
        entries_.push_back(
            {std::string("synth:") + synth::patternName(pat),
             synth::patternSummary(pat), std::move(flags),
             [pat](system::CcsvmMachine &m,
                   const WorkloadParams &p) {
                 synth::SynthParams sp = p.synth;
                 sp.pattern = pat;
                 // The stream pattern's default annotation: its
                 // private sweep buffer gains nothing from hardware
                 // coherence, so --region-hints marks it bypass.
                 if (p.regionHints &&
                     pat == synth::Pattern::Stream) {
                     sp.regionAttr = coherence::RegionAttr::Bypass;
                 }
                 return synth::synthXthreads(m, sp);
             },
             pat == synth::Pattern::PtrChase
                 ? [](const WorkloadParams &p) {
                       return p.synth.seed;
                   }
                 : std::function<
                       std::uint64_t(const WorkloadParams &)>{}});
    }
}

const WorkloadRegistry &
WorkloadRegistry::instance()
{
    static const WorkloadRegistry r;
    return r;
}

namespace
{
// Materialize the registry during static initialization: the table is
// fully built before main() runs, so sweep workers only ever touch a
// completed, read-only structure (no magic-static construction racing
// a concurrent lookup).
[[maybe_unused]] const WorkloadRegistry &builtAtStartup =
    WorkloadRegistry::instance();
} // namespace

void
WorkloadRegistry::warnIgnoredFlags(
    const WorkloadEntry &e, const std::vector<std::string> &set_flags,
    const std::function<void(const std::string &)> &sink)
{
    for (const auto &flag : set_flags) {
        if (!e.consumesFlag(flag))
            sink(flag + " is ignored by workload '" + e.name + "'");
    }
}

const WorkloadEntry *
WorkloadRegistry::find(std::string_view name) const
{
    for (const auto &e : entries_) {
        if (e.name == name)
            return &e;
    }
    return nullptr;
}

std::string
WorkloadRegistry::nameList(const char *sep) const
{
    std::string out;
    for (const auto &e : entries_) {
        if (!out.empty())
            out += sep;
        out += e.name;
    }
    return out;
}

} // namespace ccsvm::workloads
