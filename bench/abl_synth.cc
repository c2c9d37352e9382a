/**
 * @file
 * Ablation A5: synthetic coherence patterns x protocol x MTTOP core
 * count.
 *
 * The paper's applications exercise the protocol incidentally; the
 * synth patterns (src/workloads/synth) stress one sharing idiom each,
 * so this sweep is the table that actually separates MSI, MESI and
 * MOESI. The thread count scales with the core count (one SIMD chunk
 * of 8 per core) so every configuration spreads its sharers across
 * all MTTOP L1s; each row reports runtime, writebacks (off-chip plus
 * the dirty-read writebacks protocols without an O state pay) and L1
 * invalidations. synth_test holds each shape on the default 10-core
 * chip at 16 threads: migratory writebacks MSI >= MESI > MOESI
 * (SynthDiscrimination.MigratoryWritebacksOrderMsiMesiMoesi; the
 * 2-core row reads 1455/1454/0 today), false-sharing invalidations
 * at least 10x padded
 * (SynthDiscrimination.FalseSharingInvalidationsDwarfPadded), and
 * stream indifferent to the protocol
 * (SynthDiscrimination.PrivatePatternsAreProtocolIndifferent).
 * Nothing checks the 4-core row or ptrchase.
 */

#include "bench_common.hh"

#include "coherence/protocol.hh"
#include "system/ccsvm_machine.hh"
#include "system/coherence_stats.hh"
#include "workloads/synth/synth.hh"

namespace ccsvm::bench
{
namespace
{

using coherence::Protocol;
namespace synth = workloads::synth;

constexpr Protocol kProtocols[] = {Protocol::MSI, Protocol::MESI,
                                   Protocol::MOESI};
/** Threads dispatched per MTTOP core (the MIFD's SIMD chunk). */
constexpr unsigned kThreadsPerCore = 8;

} // namespace
} // namespace ccsvm::bench

int
main()
{
    using namespace ccsvm;
    using namespace ccsvm::bench;

    std::vector<int> core_counts = {2, 4};
    if (largeSweeps())
        core_counts.push_back(10);
    std::vector<BenchPoint> points;
    for (const Protocol proto : kProtocols) {
        for (const synth::Pattern pat : synth::allPatterns) {
            const std::string pname = coherence::protocolName(proto);
            const std::string series =
                pname + "_" + synth::patternName(pat);
            for (const int cores : core_counts) {
                points.push_back(
                    {"abl_synth/" + std::string(synth::patternName(pat)) +
                         "_" + pname + "/" + std::to_string(cores),
                     [proto, pat, cores] {
                         system::CcsvmConfig cfg;
                         cfg.protocol = proto;
                         cfg.numMttopCores = cores;
                         system::CcsvmMachine m(cfg);
                         synth::SynthParams p;
                         p.pattern = pat;
                         p.threads = kThreadsPerCore *
                                     static_cast<unsigned>(cores);
                         p.iters = 48;
                         SweepOutcome o;
                         o.run = synth::synthXthreads(m, p);
                         o.values["wb"] = static_cast<double>(
                             system::dirtyWritebacks(m));
                         o.values["invs"] = static_cast<double>(
                             system::l1Invalidations(m));
                         return o;
                     },
                     [series, cores](const SweepOutcome &o,
                                     FigureTable &t) {
                         const auto x = static_cast<std::uint64_t>(cores);
                         t.record(x, series + "_ms", toMs(o.run.ticks));
                         t.record(x, series + "_wb", o.values.at("wb"));
                         t.record(x, series + "_invs",
                                  o.values.at("invs"));
                     }});
            }
        }
    }
    return runBench(
        "Ablation A5: synthetic coherence patterns (runtime ms, "
        "writebacks incl. dirty-read WBs, L1 invalidations; per "
        "pattern, protocol and MTTOP core count)",
        "mttop_cores", std::move(points));
}
