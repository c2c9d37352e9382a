/**
 * @file
 * Shared aggregations over a machine's coherence counters, used by
 * the protocol/synth ablation benches and the synth tests alike so
 * the definition of "writebacks" and "invalidations" cannot drift
 * between them.
 */

#ifndef CCSVM_SYSTEM_COHERENCE_STATS_HH
#define CCSVM_SYSTEM_COHERENCE_STATS_HH

#include <string>

#include "system/ccsvm_machine.hh"

namespace ccsvm::system
{

/** Writebacks: off-chip dirty evictions plus the dirty-read
 * writebacks at the home that protocols without an Owned state pay
 * (dirN.writebacks + dirN.sharingWb over every directory bank). */
inline std::uint64_t
dirtyWritebacks(CcsvmMachine &m)
{
    return m.caches().bankTotal(".writebacks") +
           m.caches().bankTotal(".sharingWb");
}

/** Dirty-read writebacks carried home by one cluster's requestors:
 * dirN.sharingWb.<cluster> summed over every directory bank, where
 * @p cluster is "cpu" or "mttop". Under a heterogeneous pair this is
 * the traffic the weaker side pays for reading the other cluster's
 * dirty lines (and its own, when its protocol lacks O). */
inline std::uint64_t
clusterSharingWritebacks(CcsvmMachine &m, const std::string &cluster)
{
    return m.caches().bankTotal(".sharingWb." + cluster);
}

/** Invalidations received across every CPU and MTTOP L1. */
inline std::uint64_t
l1Invalidations(CcsvmMachine &m)
{
    return m.caches().l1Total(".invs");
}

} // namespace ccsvm::system

#endif // CCSVM_SYSTEM_COHERENCE_STATS_HH
