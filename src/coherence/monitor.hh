/**
 * @file
 * Single-Writer / Multiple-Reader invariant monitor.
 *
 * "Protocols commonly enforce the 'single writer or multiple readers'
 * (SWMR) invariant" (paper Sec. 3.2.2, citing Sorin/Hill/Wood). The
 * monitor shadows every L1's permission for every block and panics the
 * moment two caches could disagree — it is the protocol's executable
 * specification. Every machine builds one unless told not to
 * (`swmrChecks`, the driver's `--no-swmr`), so the driver, the
 * benchmark and the tests all run with it by default.
 */

#ifndef CCSVM_COHERENCE_MONITOR_HH
#define CCSVM_COHERENCE_MONITOR_HH

#include <cstdint>
#include <mutex>
#include <unordered_map>

#include "base/types.hh"
#include "coherence/types.hh"

namespace ccsvm::coherence
{

/** Tracks which L1s hold which blocks in which states. */
class SwmrMonitor
{
  public:
    /** Record that L1 @p id (0-31) now holds @p block_addr in @p s,
     * and check the block's invariant. */
    void onSetState(L1Id id, Addr block_addr, CohState s);

    /** Record that L1 @p id dropped @p block_addr. */
    void onDrop(L1Id id, Addr block_addr);

    /** Number of L1s currently holding @p block_addr (any state). */
    unsigned holders(Addr block_addr) const;

  private:
    /** One block's holders. A chip has at most 32 L1s (the
     * directory's sharer mask), so the readers fit one word. */
    struct BlockInfo
    {
        std::uint32_t readers = 0; ///< S and O holders, bit per L1
        L1Id writer = noL1;        ///< E or M holder
        L1Id owner = noL1;         ///< O holder (also in readers)
    };

    /**
     * L1s in different partitions update the monitor concurrently
     * within a conservative window. That is safe to serialize with a
     * lock (not order-sensitive): a writer in one partition and a
     * reader in another can only both hold permission if the
     * protocol itself broke SWMR, because any permission transfer
     * between partitions takes at least one NoC hop and therefore
     * lands in a later window.
     */
    mutable std::mutex mu_;
    /** Records are never erased: erasing one when its last holder
     * leaves would allocate a map node per block lifetime. */
    std::unordered_map<Addr, BlockInfo> blocks_;
};

} // namespace ccsvm::coherence

#endif // CCSVM_COHERENCE_MONITOR_HH
