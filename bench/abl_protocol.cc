/**
 * @file
 * Ablation A4: coherence-protocol choice (MSI / MESI / MOESI).
 *
 * The paper fixes "a standard, unoptimized MOESI directory protocol"
 * (Sec. 3.2.2); this ablation treats the protocol as the design axis
 * it is for a heterogeneous chip. Each protocol runs the dense-matmul
 * and sparse-matmul workloads on an otherwise identical machine, and
 * the table reports runtime plus the protocol-sensitive traffic:
 * writebacks (off-chip plus the dirty-read writebacks that protocols
 * without an O state pay) and invalidations received at the L1s.
 * The matmul n=16 row is the run whose shape
 * ProtocolAxis.MatmulWritebacksAndInvalidationsOrder
 * (tests/axes_test.cc) holds: MSI and MESI pay more writebacks than
 * MOESI, whose O state absorbs the dirty sharing, and MSI at least
 * MOESI's invalidations (today wb 49/49/0 and invs 5/2/2 for
 * MSI/MESI/MOESI). MSI's explicit upgrade for a private
 * read-then-write is CoherenceP.PrivateReadThenWriteUpgradeCost.
 */

#include "bench_common.hh"

#include "coherence/protocol.hh"
#include "system/ccsvm_machine.hh"
#include "system/coherence_stats.hh"

namespace ccsvm::bench
{
namespace
{

using coherence::Protocol;
using system::dirtyWritebacks;
using system::l1Invalidations;

constexpr Protocol kProtocols[] = {Protocol::MSI, Protocol::MESI,
                                   Protocol::MOESI};

/** One protocol x workload point; the job extracts the
 * protocol-sensitive machine stats before its machine dies. */
BenchPoint
protocolPoint(Protocol proto, unsigned n, bool spmm)
{
    const std::string p = coherence::protocolName(proto);
    const std::string workload = spmm ? "spmm" : "matmul";
    return {"abl_protocol/" + workload + "_" + p + "/" +
                std::to_string(n),
            [proto, n, spmm] {
                system::CcsvmConfig cfg;
                cfg.protocol = proto;
                system::CcsvmMachine m(cfg);
                SweepOutcome o;
                if (spmm) {
                    workloads::SpmmParams sp;
                    sp.n = n;
                    o.run = workloads::spmmXthreads(m, sp);
                } else {
                    o.run = workloads::matmulXthreads(m, n);
                }
                o.values["wb"] = static_cast<double>(dirtyWritebacks(m));
                o.values["invs"] =
                    static_cast<double>(l1Invalidations(m));
                return o;
            },
            [series = p + "_" + workload, n](const SweepOutcome &o,
                                             FigureTable &t) {
                t.record(n, series + "_ms", toMs(o.run.ticks));
                t.record(n, series + "_wb", o.values.at("wb"));
                t.record(n, series + "_invs", o.values.at("invs"));
            }};
}

} // namespace
} // namespace ccsvm::bench

int
main()
{
    using namespace ccsvm::bench;

    std::vector<unsigned> matmul_sizes = {16, 32};
    std::vector<unsigned> spmm_sizes = {32};
    if (largeSweeps()) {
        matmul_sizes.push_back(64);
        spmm_sizes.push_back(64);
    }
    std::vector<BenchPoint> points;
    for (const Protocol proto : kProtocols) {
        for (const unsigned n : matmul_sizes)
            points.push_back(protocolPoint(proto, n, false));
        for (const unsigned n : spmm_sizes)
            points.push_back(protocolPoint(proto, n, true));
    }
    return runBench(
        "Ablation A4: coherence protocol sweep (runtime ms, writebacks "
        "incl. dirty-read WBs, L1 invalidations; per protocol and "
        "workload)",
        "n", std::move(points));
}
