/**
 * @file
 * Ablation A7: region-based coherence (attr x pattern x protocol).
 *
 * The paper's Section 5 discussion asks when hardware coherence pays
 * off for MTTOP data; the answer depends on the access pattern, which
 * varies per data region. This sweep crosses the three region
 * attributes (coherent — the PR-4 baseline, bypass — uncacheable at
 * the home, override:mesi — the read-mostly protocol pin) with the
 * two synth patterns the attributes discriminate hardest (stream:
 * private capacity-bound sweeps where coherence is pure overhead;
 * false sharing: invalidation storms that bypass eliminates) under
 * every chip protocol. Each row reports runtime, off-chip DRAM
 * transactions, L2 fills, directory-initiated invalidations (Inv
 * messages + inclusive-eviction recalls) and bypass ops. Today the
 * bypass stream rows cut L2 fills from 1042 to 18 under MSI, paying
 * per-op DRAM latency instead. RegionAxis.StreamBypassCutsFillsAndInvalidations
 * (tests/axes_test.cc) holds that shape, with fewer L1 fills and
 * directory invalidations too, on a recall-bound stream (1 MB over
 * 4 x 64 KB of L2). RegionAxis.MesiOverrideCutsMsiUpgrades holds the
 * MESI override's effect under MSI; nothing checks the override
 * rows here.
 */

#include "bench_common.hh"

#include "coherence/protocol.hh"
#include "system/ccsvm_machine.hh"
#include "workloads/synth/synth.hh"

namespace ccsvm::bench
{
namespace
{

using coherence::Protocol;
using coherence::protocolName;
using coherence::RegionAttr;
namespace synth = workloads::synth;

struct AttrPoint
{
    const char *name;
    RegionAttr attr;
    Protocol prot;
};

constexpr AttrPoint kAttrs[] = {
    {"coherent", RegionAttr::Coherent, {}},
    {"bypass", RegionAttr::Bypass, {}},
    {"override_mesi", RegionAttr::ProtocolOverride, Protocol::MESI},
};

constexpr synth::Pattern kPatterns[] = {synth::Pattern::Stream,
                                        synth::Pattern::FalseShare};

} // namespace
} // namespace ccsvm::bench

int
main()
{
    using namespace ccsvm;
    using namespace ccsvm::bench;

    std::vector<BenchPoint> points;
    for (std::uint64_t a = 0; a < 3; ++a) {
        const AttrPoint &attr = kAttrs[a];
        for (const synth::Pattern pat : kPatterns) {
            for (const Protocol proto : coherence::allProtocols) {
                const std::string series = std::string(attr.name) + "_" +
                                           synth::patternName(pat) +
                                           "_" + protocolName(proto);
                // Each job extracts the directory counters before its
                // machine dies.
                points.push_back(
                    {std::string("abl_region/") +
                         synth::patternName(pat) + "_" + attr.name +
                         "_" + protocolName(proto),
                     [attr, pat, proto] {
                         system::CcsvmConfig cfg;
                         cfg.protocol = proto;
                         system::CcsvmMachine m(cfg);
                         synth::SynthParams p;
                         p.pattern = pat;
                         p.iters = largeSweeps() ? 24 : 8;
                         p.regionAttr = attr.attr;
                         p.regionProt = attr.prot;
                         SweepOutcome o;
                         o.run = synth::synthXthreads(m, p);
                         const coherence::CacheSystem &c = m.caches();
                         o.values["fills"] = static_cast<double>(
                             c.bankTotal(".fetches"));
                         o.values["dirinvs"] = static_cast<double>(
                             c.bankTotal(".invsSent.cpu") +
                             c.bankTotal(".invsSent.mttop") +
                             c.bankTotal(".recalls"));
                         o.values["bypass"] = static_cast<double>(
                             c.bankTotal(".bypassReads") +
                             c.bankTotal(".bypassWrites"));
                         return o;
                     },
                     [series, a](const SweepOutcome &o, FigureTable &t) {
                         t.record(a, series + "_ms", toMs(o.run.ticks));
                         t.record(a, series + "_dram",
                                  static_cast<double>(
                                      o.run.dramAccesses));
                         t.record(a, series + "_fills",
                                  o.values.at("fills"));
                         t.record(a, series + "_dirinvs",
                                  o.values.at("dirinvs"));
                         t.record(a, series + "_bypass",
                                  o.values.at("bypass"));
                     }});
            }
        }
    }
    return runBench(
        "Ablation A7: region-based coherence — region attribute x synth "
        "pattern x protocol (runtime ms, DRAM transactions, L2 fills, "
        "directory-initiated invalidations incl. recalls, bypass ops; "
        "x = attribute index: 0 coherent, 1 bypass, 2 override:mesi)",
        "attr", std::move(points));
}
