/**
 * @file
 * Synthetic coherence-traffic generator (in the spirit of
 * gem5-coherence-benchmark's coh_bench).
 *
 * The paper's four applications exercise the protocol incidentally;
 * none isolates a single sharing pattern. This subsystem runs small
 * guest kernels on the CCSVM machine's MTTOP threads whose *only*
 * job is to produce one canonical coherence pattern, so protocol
 * variants (MSI/MESI/MOESI) can be discriminated by the traffic they
 * generate:
 *
 *   padded      each thread read-modify-writes its own cache line —
 *               the coherence-idle baseline every other pattern is
 *               compared against
 *   false       threads hammer different words of the SAME line
 *               (false sharing): every store invalidates the others
 *   hot         true sharing: all threads atomically increment one
 *               word (GetM storm on a single line)
 *   migratory   token-passing: exactly one thread at a time reads
 *               then writes a shared line, then hands off — the
 *               read-dirty-then-write pattern the O state exists for
 *   prodcons    producer/consumer pairs ping-ponging a flag+data line
 *   stream      each thread sweeps a private footprint (capacity
 *               misses, DRAM bandwidth; no sharing)
 *   ptrchase    each thread walks a private pseudo-random pointer
 *               ring (dependent-load latency; no MLP)
 *   readmostly  a shared read-mostly line set with a configurable
 *               read/write ratio (atomic writers, wide invalidations)
 *   conflict    every thread sweeps private lines that all map to the
 *               SAME set of the SAME home bank under the default mod
 *               slice hash (stride = set-stride x bank count): a
 *               pathological set-conflict stressor that drives L2
 *               conflict evictions/recalls, and the workload the
 *               slice-hash ablation uses to show xorfold/skew
 *               spreading the hot bank
 *
 * Every pattern has a host golden model, so RunResult::correct stays
 * as meaningful as it is for the paper workloads: the guest threads
 * write per-thread checksums and leave the shared region in a state
 * the host can predict (or bound, for readmostly checksums).
 */

#ifndef CCSVM_WORKLOADS_SYNTH_SYNTH_HH
#define CCSVM_WORKLOADS_SYNTH_SYNTH_HH

#include <array>

#include "workloads/workloads.hh"

namespace ccsvm::workloads::synth
{

/** The composable access patterns (see file comment). */
enum class Pattern : std::uint8_t
{
    Padded,
    FalseShare,
    Hot,
    Migratory,
    ProdCons,
    Stream,
    PtrChase,
    ReadMostly,
    Conflict,
};

inline constexpr std::array<Pattern, 9> allPatterns = {
    Pattern::Padded,    Pattern::FalseShare, Pattern::Hot,
    Pattern::Migratory, Pattern::ProdCons,   Pattern::Stream,
    Pattern::PtrChase,  Pattern::ReadMostly, Pattern::Conflict,
};

/** Lower-case pattern name as used in workload names
 * ("synth:<name>") and the driver. */
const char *patternName(Pattern p);

/** One-line description of what the pattern stresses. */
const char *patternSummary(Pattern p);

/** Parameters for one synthetic run. */
struct SynthParams
{
    Pattern pattern = Pattern::Padded;

    /** MTTOP threads generating traffic (clamped to the machine's
     * context count). Threads are dispatched to MTTOP cores in SIMD
     * chunks, so counts spanning several chunks (the default) put
     * sharers behind different L1s; a single-chunk count keeps all
     * traffic inside one core's cache. */
    unsigned threads = 16;

    /** Main-loop iterations per thread. For token-passing patterns
     * (migratory, prodcons) this is rounds per thread; for readmostly
     * it is the number of writes per thread. */
    unsigned iters = 64;

    /** Extra reads of the target between writes (padded, false, hot,
     * migratory) or reads per write (readmostly). */
    unsigned readsPerWrite = 4;

    /** Total data footprint for stream/ptrchase, split evenly across
     * the threads. */
    Addr footprintBytes = 64 * 1024;

    /** Access stride for stream/ptrchase (>= 8, multiple of 8;
     * default one access per cache line). The conflict pattern
     * ignores this and derives its stride from the machine's L2
     * geometry so its lines collide in one set of one bank. */
    unsigned strideBytes = 64;

    /** Sharing degree: threads per line for false sharing (clamped
     * to the 8 u64 words a 64-byte line holds), shared lines for
     * readmostly, conflicting lines per thread for conflict. */
    unsigned sharingDegree = 8;

    /** Seed for the ptrchase permutation. */
    std::uint64_t seed = 1;

    /**
     * Region-based coherence attribute for the pattern's data region.
     * Coherent (the default) keeps the historical behavior —
     * line-granular allocation, no region annotation, bit-identical
     * stats. Any other value page-allocates the data region and
     * annotates it, so every access to it runs under the attribute
     * (bypass: uncacheable at the home; override: regionProt instead
     * of the cluster protocol). The driver's --region-hints flag sets
     * Bypass for synth:stream, the pattern the paper's discussion
     * singles out as coherence-indifferent.
     */
    coherence::RegionAttr regionAttr =
        coherence::RegionAttr::Coherent;
    coherence::Protocol regionProt{}; ///< for ProtocolOverride
};

/** Run @p p as guest xthreads code on a caller-provided machine (the
 * driver's stats dump keeps access to the registry afterwards). */
RunResult synthXthreads(system::CcsvmMachine &m, const SynthParams &p);

/** Convenience overload building a fresh machine from @p cfg. */
RunResult synthXthreads(const SynthParams &p,
                        system::CcsvmConfig cfg = {});

} // namespace ccsvm::workloads::synth

#endif // CCSVM_WORKLOADS_SYNTH_SYNTH_HH
