/**
 * @file
 * Ablation A6: per-cluster heterogeneous coherence protocols.
 *
 * The paper's chip runs one protocol everywhere; this sweep crosses
 * every CPU-cluster protocol with every MTTOP-cluster protocol (9
 * pairs) over two paper workloads (dense and sparse matmul) and the
 * two synthetic patterns that discriminate the pairs hardest:
 * migratory (read-dirty-then-write hand-offs, the O state's reason to
 * exist) and false sharing (invalidation storms). Each row reports
 * runtime plus the pair-sensitive traffic: total writebacks (off-chip
 * plus dirty-read writebacks), the per-cluster split of the
 * dirty-read writebacks, and L1 invalidations. The shapes and the
 * tests that hold them:
 *  - a homogeneous pair is its single-protocol run
 *    (HeteroCoherenceP.HomogeneousPairMatchesSingleProtocolStats;
 *    byte for byte through the driver in ccsvm_driver_axes);
 *  - an MTTOP side without O pays the migratory hand-offs at the
 *    home, charged to the MTTOP cluster
 *    (HeteroCoherenceP.MigratoryHandoffChargesTheWeakerCluster, and
 *    ProtocolPairAxis.MigratoryChargesTheMttopClusterWithoutO on the
 *    whole chip): 719 MTTOP-side writebacks today in every migratory
 *    row with an MSI or MESI MTTOP side, 0 with MOESI;
 *  - a CPU reading MTTOP-dirty data under a pair without O at both
 *    ends pays the writeback, charged to the CPU cluster
 *    (HeteroCoherenceP.MttopOwnerDirtyDataIsNeverLost): 16 CPU-side
 *    migratory writebacks today in every pair but all-MOESI.
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
using coherence::protocolName;
namespace synth = workloads::synth;

/** Pair index p = cpu * 3 + mttop over coherence::allProtocols. */
Protocol
cpuOf(std::int64_t pair)
{
    return coherence::allProtocols[static_cast<std::size_t>(pair / 3)];
}

Protocol
mttopOf(std::int64_t pair)
{
    return coherence::allProtocols[static_cast<std::size_t>(pair % 3)];
}

std::string
pairName(std::int64_t pair)
{
    return std::string(protocolName(cpuOf(pair))) + "_" +
           protocolName(mttopOf(pair));
}

system::CcsvmConfig
pairConfig(std::int64_t pair)
{
    system::CcsvmConfig cfg;
    cfg.cpuProtocol = cpuOf(pair);
    cfg.mttopProtocol = mttopOf(pair);
    return cfg;
}

/** Fold the pair-sensitive traffic stats into the outcome before the
 * machine is destroyed (jobs run on sweep workers). */
void
extractStats(system::CcsvmMachine &m, SweepOutcome &o)
{
    o.values["wb"] =
        static_cast<double>(system::dirtyWritebacks(m));
    o.values["swb_cpu"] = static_cast<double>(
        system::clusterSharingWritebacks(m, "cpu"));
    o.values["swb_mttop"] = static_cast<double>(
        system::clusterSharingWritebacks(m, "mttop"));
    o.values["invs"] =
        static_cast<double>(system::l1Invalidations(m));
}

/** One pair x workload point: @p run simulates the workload on the
 * pair's machine. */
BenchPoint
pairPoint(std::int64_t pair, const std::string &workload,
          std::function<workloads::RunResult(system::CcsvmMachine &)> run)
{
    const std::string series = pairName(pair) + "_" + workload;
    return {"abl_hetero/" + workload + "_" + pairName(pair),
            [pair, run = std::move(run)] {
                system::CcsvmMachine m(pairConfig(pair));
                SweepOutcome o;
                o.run = run(m);
                extractStats(m, o);
                return o;
            },
            [series, x = static_cast<std::uint64_t>(pair)](
                const SweepOutcome &o, FigureTable &t) {
                t.record(x, series + "_ms", toMs(o.run.ticks));
                t.record(x, series + "_wb", o.values.at("wb"));
                t.record(x, series + "_swb_cpu", o.values.at("swb_cpu"));
                t.record(x, series + "_swb_mttop",
                         o.values.at("swb_mttop"));
                t.record(x, series + "_invs", o.values.at("invs"));
            }};
}

} // namespace
} // namespace ccsvm::bench

int
main()
{
    using namespace ccsvm;
    using namespace ccsvm::bench;

    const unsigned matmul_n = largeSweeps() ? 32 : 16;
    constexpr synth::Pattern kPatterns[] = {synth::Pattern::Migratory,
                                            synth::Pattern::FalseShare};
    std::vector<BenchPoint> points;
    for (std::int64_t pair = 0; pair < 9; ++pair) {
        points.push_back(pairPoint(
            pair, "matmul", [matmul_n](system::CcsvmMachine &m) {
                return workloads::matmulXthreads(m, matmul_n);
            }));
        points.push_back(
            pairPoint(pair, "spmm", [](system::CcsvmMachine &m) {
                workloads::SpmmParams p;
                p.n = 32;
                return workloads::spmmXthreads(m, p);
            }));
        for (const synth::Pattern pat : kPatterns) {
            points.push_back(pairPoint(
                pair, synth::patternName(pat),
                [pat](system::CcsvmMachine &m) {
                    synth::SynthParams p;
                    p.pattern = pat;
                    p.iters = 24;
                    return synth::synthXthreads(m, p);
                }));
        }
    }
    return runBench(
        "Ablation A6: per-cluster heterogeneous protocol pairs "
        "(cpu_mttop; runtime ms, writebacks, per-cluster dirty-read "
        "writeback split, L1 invalidations; x = pair index)",
        "pair", std::move(points));
}
