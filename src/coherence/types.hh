/**
 * @file
 * Protocol-wide types for the MOESI directory protocol.
 *
 * The paper (Sec. 3.2.2) uses "a standard, unoptimized MOESI directory
 * protocol in which the directory state is embedded in the L2 blocks"
 * with an inclusive L2; every type here mirrors that design.
 */

#ifndef CCSVM_COHERENCE_TYPES_HH
#define CCSVM_COHERENCE_TYPES_HH

#include <cstdint>

#include "base/types.hh"

namespace ccsvm::mem
{
class PhysMem;
} // namespace ccsvm::mem

namespace ccsvm::coherence
{

/** Stable MOESI states at an L1 cache. */
enum class CohState : std::uint8_t
{
    I, ///< invalid
    S, ///< shared, clean, read-only
    E, ///< exclusive, clean, silently upgradable to M
    M, ///< modified, dirty, sole copy
    O, ///< owned, dirty, other sharers may exist
};

const char *cohStateName(CohState s);

/** True if @p s permits loads. */
constexpr bool
canRead(CohState s)
{
    return s != CohState::I;
}

/** True if @p s permits stores and atomics (E upgrades silently). */
constexpr bool
canWrite(CohState s)
{
    return s == CohState::E || s == CohState::M;
}

/** Directory-side summary state embedded in each L2 line. */
enum class DirState : std::uint8_t
{
    S, ///< L2 data valid; zero or more L1 sharers; no owner
    X, ///< one L1 owner holds the block E or M; L2 data possibly stale
    O, ///< one dirty L1 owner plus sharers; L2 data stale
};

const char *dirStateName(DirState s);

/** Identifier of an L1 cache controller within one machine. */
using L1Id = int;
inline constexpr L1Id noL1 = -1;

/** The kind of core an L1 serves: it names the L1 ("cpu3.l1"), picks
 * its latency histogram family and splits the per-cluster counters. */
enum class CoreKind : std::uint8_t
{
    Cpu,
    Mttop,
};

/** Lower-case kind name ("cpu", "mttop"). */
constexpr const char *
coreKindName(CoreKind k)
{
    return k == CoreKind::Cpu ? "cpu" : "mttop";
}

/**
 * Selectable coherence protocols, ordered weakest to strongest.
 * Defined here rather than protocol.hh so the VM layer can tag memory
 * regions with a protocol override without pulling the policy and
 * message headers into every translation path.
 */
enum class Protocol : std::uint8_t
{
    MSI,
    MESI,
    MOESI,
};

/**
 * Per-region coherence treatment. A virtual-memory region carries one
 * of these attributes (vm::MemRegion); the TLB hands it to the core
 * with every translation and the L1/directory honor it per request.
 */
enum class RegionAttr : std::uint8_t
{
    /** Default: full hardware coherence under the cluster protocol. */
    Coherent,
    /** Uncacheable: the L1 never allocates; reads/writes/atomics run
     * at the home node (L2 copy if resident, else DRAM) and generate
     * no fills, upgrades or invalidations. */
    Bypass,
    /** Coherent, but under the region's own protocol instead of the
     * cluster default (e.g. read-mostly data pinned to MESI). */
    ProtocolOverride,
};

/** Lower-case attribute name ("coherent", "bypass", "override"). */
const char *regionAttrName(RegionAttr a);

/**
 * A block's region: its attribute and, for ProtocolOverride, the
 * protocol that replaces the cluster's. It rides with the TLB entry
 * into every request, MSHR, protocol message and L2 line of the
 * block, and policyFor() (protocol.hh) is the one place it is
 * resolved to a protocol.
 */
struct Region
{
    RegionAttr attr = RegionAttr::Coherent;
    Protocol prot{}; ///< valid when attr == ProtocolOverride
};

/** Atomic read-modify-write operations (the MTTOP ISA's atomics,
 * Sec. 3.2.4: atomic_cas, atomic_add, atomic_inc, atomic_dec, plus
 * exchange and min/max used by the workloads). */
enum class AmoOp : std::uint8_t
{
    Add,
    Inc,
    Dec,
    Cas,
    Exch,
    Min,
    Max,
};

/**
 * One scalar access: a load, store or atomic read-modify-write of 1,
 * 2, 4 or 8 naturally aligned bytes. It is the one description of
 * such an access from the guest op to the L1, the home bank and the
 * APU's uncached paths, and applyTo() is the one place that performs
 * it, wherever the paper's designs put it: at the L1 once it holds
 * permission (CCSVM), or at the home bank or in memory (bypass
 * regions, the APU).
 */
struct ScalarOp
{
    enum class Kind : std::uint8_t { Read, Write, Amo };

    Kind kind = Kind::Read;
    AmoOp amoOp = AmoOp::Add;   ///< Amo: the operation
    unsigned size = 8;          ///< bytes: 1, 2, 4 or 8
    std::uint64_t wdata = 0;    ///< Write: store data
    std::uint64_t operand = 0;  ///< Amo: operand (CAS compare value)
    std::uint64_t operand2 = 0; ///< Amo: second operand (CAS swap)

    /** A store or an atomic: needs write permission. */
    bool writes() const { return kind != Kind::Read; }

    /** Perform the access on the first `size` bytes at @p bytes.
     * Returns the loaded value (Read), the pre-RMW value (Amo) or 0
     * (Write). */
    std::uint64_t applyTo(std::uint8_t *bytes) const;

    /** The same, on physical memory at @p pa; a read writes nothing. */
    std::uint64_t applyTo(mem::PhysMem &phys, Addr pa) const;
};

} // namespace ccsvm::coherence

#endif // CCSVM_COHERENCE_TYPES_HH
