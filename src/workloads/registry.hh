/**
 * @file
 * The workload registry: every runnable workload under one name.
 *
 * The ccsvm driver used to dispatch workloads through a hand-written
 * if-chain with a separately hand-maintained usage string — the two
 * drifted. The registry is the single source of truth: each entry
 * carries its name, a one-line summary, the set of driver flags the
 * workload actually consumes (so the driver can warn when a flag is
 * set that the selected workload ignores), and a factory that runs it
 * on a caller-provided CcsvmMachine. The driver's dispatch,
 * `--list-workloads`, the unknown-workload error and the ignored-flag
 * warning (whose watched flags are the union of every entry's
 * `flags`) all enumerate this table, so adding a workload is one
 * registration in registry.cc (see README "Workloads").
 */

#ifndef CCSVM_WORKLOADS_REGISTRY_HH
#define CCSVM_WORKLOADS_REGISTRY_HH

#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "workloads/synth/synth.hh"
#include "workloads/workloads.hh"

namespace ccsvm::workloads
{

/**
 * The union of every parameter any registered workload consumes. The
 * driver fills this from flags; each workload's factory reads its
 * slice and ignores the rest.
 */
struct WorkloadParams
{
    unsigned n = 32; ///< matmul/apsp/spmm matrix dimension
    /** matmul input seed: 0 (default) = the historical deterministic
     * inputs; nonzero = per-run PRNG inputs (driver flag --seed). */
    std::uint64_t matmulSeed = 0;
    BarnesHutParams bh;
    SpmmParams spmm;
    synth::SynthParams synth;

    /** Apply the workload's default region annotations (driver flag
     * --region-hints): synth:stream marks its stream buffer bypass,
     * matmul marks its input matrices read-mostly (MESI override).
     * Off by default so unannotated runs stay bit-identical to the
     * region-unaware simulator. */
    bool regionHints = false;

    /** `.ccsvmt` trace file for the replay workload (driver flag
     * --trace; see docs/TRACE_FORMAT.md). */
    std::string replayTrace;
};

/** One selectable workload. */
struct WorkloadEntry
{
    std::string name;    ///< e.g. "matmul", "synth:migratory"
    std::string summary; ///< one line for usage/--list-workloads
    /** Driver flags this workload consumes (beyond machine/output
     * flags, which every workload accepts). */
    std::vector<std::string> flags;
    std::function<RunResult(system::CcsvmMachine &,
                            const WorkloadParams &)>
        run;

    /** The input seed this workload consumes (for run-metadata
     * reporting, e.g. the driver's JSON); empty for unseeded
     * workloads. Lives here, next to run and flags, so adding a
     * seeded workload keeps all of its bookkeeping in one entry. */
    std::function<std::uint64_t(const WorkloadParams &)> seed;

    bool
    consumesFlag(std::string_view flag) const
    {
        for (const auto &f : flags) {
            if (f == flag)
                return true;
        }
        return false;
    }
};

/** Immutable table of every workload. The table is materialized
 * eagerly during static initialization (registry.cc), so by the time
 * any sweep worker thread can call instance() the registry is a
 * fully-built, read-only structure — no first-use construction under
 * thread contention. */
class WorkloadRegistry
{
  public:
    static const WorkloadRegistry &instance();

    /**
     * The flags in @p set_flags that @p e does not consume, in input
     * order. Reporting is the caller's job via @p sink — library code
     * never writes to stderr on this path (the driver prints a
     * "ccsvm: warning:" line per message; tests collect them).
     * Each sink message reads "<flag> is ignored by workload '<name>'".
     */
    static void
    warnIgnoredFlags(const WorkloadEntry &e,
                     const std::vector<std::string> &set_flags,
                     const std::function<void(const std::string &)>
                         &sink);

    /** Entry for @p name, or nullptr. */
    const WorkloadEntry *find(std::string_view name) const;

    /** All entries, registration order (paper workloads first, then
     * the synth patterns). */
    const std::vector<WorkloadEntry> &entries() const
    {
        return entries_;
    }

    /** "matmul, apsp, ..." — for usage text and error messages. */
    std::string nameList(const char *sep = ", ") const;

  private:
    WorkloadRegistry();
    std::vector<WorkloadEntry> entries_;
};

} // namespace ccsvm::workloads

#endif // CCSVM_WORKLOADS_REGISTRY_HH
