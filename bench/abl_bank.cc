/**
 * @file
 * Ablation A10: the L2/directory bank layer's policy seams — bank
 * count x home-slice hash x replacement policy.
 *
 * Three synth patterns probe the seams from different angles:
 * stream with a 256-byte stride (power-of-two strides are exactly
 * what mod hashing hot-spots onto one bank), false sharing (bank
 * traffic dominated by invalidations, hash-insensitive — a control),
 * and conflict (every line in one set of one home bank under mod,
 * the replacement policy's worst case). Each is swept over bank
 * count {2,4,8} x slice hash with the default lru replacer, plus the
 * replacement-policy axis at the default 4-bank mod configuration.
 * A fourth row family captures a synth:false trace once and replays
 * it under every hash x replacer pair — the seams must accept a
 * fixed stimulus regardless of policy.
 *
 * Per row: simulated ms, DRAM transactions, the hottest bank's share
 * of directory requests (1/banks = perfectly spread, 1.0 = fully
 * pinned), peak directory occupancy of the hottest bank, and
 * conflict evictions split total/coherent. Today mod puts 99.7% of
 * the strided stream's directory requests on one of 4 banks and
 * xorfold and skew 25%; BankAxis.XorfoldSpreadsTheStridedStream
 * (tests/axes_test.cc) holds the hottest bank's peak occupancy, mod
 * above xorfold, on a 1 MB stream. Under mod the conflict pattern's
 * 952 evictions stay at every bank count (it derives its stride from
 * the bank geometry); under xorfold and skew they fall to 0 at 4
 * banks. BankAxis.RegionReplacerShieldsCoherentLines holds the region
 * replacer's shape on an annotated matmul; nothing checks the
 * replacer rows here.
 */

#include "bench_common.hh"

#include <cstdio>

#include "cache/replacer.hh"
#include "coherence/cache_system.hh"
#include "coherence/slice_hash.hh"
#include "system/ccsvm_machine.hh"
#include "workloads/replay/replayer.hh"
#include "workloads/synth/synth.hh"

namespace ccsvm::bench
{
namespace
{

using cache::ReplacerKind;
using cache::replacerName;
using coherence::SliceHashKind;
using coherence::sliceHashName;
namespace synth = workloads::synth;

constexpr int kBanks[] = {2, 4, 8};

struct Probe
{
    const char *name;
    synth::Pattern pattern;
};

constexpr Probe kProbes[] = {
    {"stream", synth::Pattern::Stream},
    {"false", synth::Pattern::FalseShare},
    {"conflict", synth::Pattern::Conflict},
};

synth::SynthParams
probeParams(const Probe &probe)
{
    synth::SynthParams p;
    p.pattern = probe.pattern;
    p.iters = largeSweeps() ? 24 : 8;
    if (probe.pattern == synth::Pattern::Stream) {
        // One access every 4 blocks: under mod every access from a
        // thread's chunk walks the banks in lockstep with the set
        // index, the stride class the alternate hashes are for.
        p.strideBytes = 256;
        p.footprintBytes = 512 * 1024;
        p.iters = largeSweeps() ? 8 : 2;
    }
    return p;
}

/** Per-bank directory stats digested into figure values. */
void
bankValues(system::CcsvmMachine &m, SweepOutcome &o)
{
    std::uint64_t total_req = 0, max_req = 0, max_occ = 0;
    std::uint64_t evs = 0, evs_coh = 0;
    for (int b = 0; b < m.config().numL2Banks; ++b) {
        const std::string dir = coherence::CacheSystem::bankName(b);
        const std::uint64_t req = m.stats().get(dir + ".requests");
        total_req += req;
        max_req = std::max(max_req, req);
        max_occ =
            std::max(max_occ, m.stats().get(dir + ".occupancy"));
        evs += m.stats().get(dir + ".conflictEvictions");
        evs_coh +=
            m.stats().get(dir + ".conflictEvictions.coherent");
    }
    o.values["max_bank_share"] =
        total_req ? static_cast<double>(max_req) /
                        static_cast<double>(total_req)
                  : 0.0;
    o.values["max_bank_occupancy"] = static_cast<double>(max_occ);
    o.values["conflict_evictions"] = static_cast<double>(evs);
    o.values["conflict_evictions_coherent"] =
        static_cast<double>(evs_coh);
}

constexpr const char *kValueKeys[] = {
    "max_bank_share",
    "max_bank_occupancy",
    "conflict_evictions",
    "conflict_evictions_coherent",
};

/** One simulated point under figure series @p series at x = @p banks.
 * The series name carries workload, hash and replacer, so replacer
 * rows (4 banks only) leave "-" gaps at the other bank counts. */
BenchPoint
bankPoint(const std::string &series, int banks,
          std::function<SweepOutcome()> run)
{
    return {"abl_bank/" + series + "/banks:" + std::to_string(banks),
            std::move(run),
            [series, x = static_cast<std::uint64_t>(banks)](
                const SweepOutcome &o, FigureTable &t) {
                t.record(x, series + "_ms", toMs(o.run.ticks));
                t.record(x, series + "_dram",
                         static_cast<double>(o.run.dramAccesses));
                for (const char *key : kValueKeys)
                    t.record(x, series + "_" + key, o.values.at(key));
            }};
}

SweepOutcome
synthPoint(const Probe &probe, int banks, SliceHashKind hash,
           ReplacerKind replace)
{
    system::CcsvmConfig cfg;
    cfg.numL2Banks = banks;
    cfg.sliceHash = hash;
    cfg.l2.replace = replace;
    system::CcsvmMachine m(cfg);
    SweepOutcome o;
    o.run = synth::synthXthreads(m, probeParams(probe));
    bankValues(m, o);
    return o;
}

SweepOutcome
replayPoint(SliceHashKind hash, ReplacerKind replace)
{
    const char *tmp = std::getenv("TMPDIR");
    const std::string trace =
        std::string(tmp && tmp[0] ? tmp : "/tmp") +
        "/ccsvm_abl_bank_" + sliceHashName(hash) + "_" +
        replacerName(replace) + ".ccsvmt";
    {
        // Capture under the default configuration: the hash is
        // echoed in the trace header but deliberately not part of
        // the replay shape check.
        system::CcsvmConfig cfg;
        cfg.captureOut = trace;
        system::CcsvmMachine m(cfg);
        synth::SynthParams p;
        p.pattern = synth::Pattern::FalseShare;
        p.iters = largeSweeps() ? 24 : 8;
        const workloads::RunResult r = synth::synthXthreads(m, p);
        ccsvm_assert(r.correct, "abl_bank capture run failed");
    }
    system::CcsvmConfig cfg;
    cfg.sliceHash = hash;
    cfg.l2.replace = replace;
    system::CcsvmMachine m(cfg);
    SweepOutcome o;
    o.run = workloads::replay::runReplay(m, trace);
    bankValues(m, o);
    std::remove(trace.c_str());
    return o;
}

} // namespace
} // namespace ccsvm::bench

int
main()
{
    using namespace ccsvm;
    using namespace ccsvm::bench;

    std::vector<BenchPoint> points;
    for (const Probe &probe : kProbes) {
        for (const int banks : kBanks) {
            for (const SliceHashKind hash : coherence::allSliceHashes) {
                points.push_back(bankPoint(
                    std::string(probe.name) + "_" + sliceHashName(hash) +
                        "_lru",
                    banks, [probe, banks, hash] {
                        return synthPoint(probe, banks, hash,
                                          ReplacerKind::Lru);
                    }));
            }
        }
        for (const ReplacerKind rep : cache::allReplacers) {
            if (rep == ReplacerKind::Lru)
                continue; // the 4-bank mod+lru point is in the grid
            points.push_back(bankPoint(
                std::string(probe.name) + "_mod_" + replacerName(rep), 4,
                [probe, rep] {
                    return synthPoint(probe, 4, SliceHashKind::Mod, rep);
                }));
        }
    }
    for (const SliceHashKind hash : coherence::allSliceHashes) {
        for (const ReplacerKind rep : cache::allReplacers) {
            points.push_back(bankPoint(
                std::string("replay_") + sliceHashName(hash) + "_" +
                    replacerName(rep),
                4, [hash, rep] { return replayPoint(hash, rep); }));
        }
    }
    return runBench(
        "Ablation A10: L2/directory bank layer — bank count x slice "
        "hash x replacement policy (simulated ms, DRAM transactions, "
        "hottest bank's request share, peak bank occupancy, conflict "
        "evictions total/coherent; x = bank count)",
        "banks", std::move(points));
}
