#include "coherence/monitor.hh"

#include <bit>
#include <limits>

#include "base/logging.hh"

namespace ccsvm::coherence
{

void
SwmrMonitor::onSetState(L1Id id, Addr block_addr, CohState s)
{
    // A machine's cache system caps its L1s at the directory's
    // sharer-mask width; a standalone monitor has no such guard.
    ccsvm_assert(id >= 0 &&
                     id < std::numeric_limits<std::uint32_t>::digits,
                 "SWMR monitor tracks L1s 0-31, got L1 %d", id);
    const std::uint32_t bit = 1u << id;

    std::lock_guard<std::mutex> lk(mu_);
    BlockInfo &info = blocks_[block_addr];

    // Remove any previous record for this L1 on this block.
    info.readers &= ~bit;
    if (info.writer == id)
        info.writer = noL1;
    if (info.owner == id)
        info.owner = noL1;

    switch (s) {
      case CohState::I:
        break;
      case CohState::S:
        info.readers |= bit;
        break;
      case CohState::O:
        info.readers |= bit;
        ccsvm_assert(info.owner == noL1,
                     "two owners for block 0x%llx: L1 %d and L1 %d",
                     (unsigned long long)block_addr, info.owner, id);
        info.owner = id;
        break;
      case CohState::E:
      case CohState::M:
        // The previous record for this L1 was erased above, so any
        // surviving writer is a *different* L1 — two simultaneous
        // writers, which the check below alone cannot see (it has
        // one writer slot, and silently overwriting it would hide
        // the second).
        ccsvm_assert(info.writer == noL1,
                     "SWMR violated: block 0x%llx has two writers, "
                     "L1 %d and L1 %d",
                     (unsigned long long)block_addr, info.writer, id);
        info.writer = id;
        break;
    }

    if (info.writer != noL1) {
        // A writer (E or M) must be the sole holder.
        ccsvm_assert(info.readers == 0,
                     "SWMR violated: block 0x%llx has writer L1 %d and "
                     "%d readers",
                     (unsigned long long)block_addr, info.writer,
                     std::popcount(info.readers));
        ccsvm_assert(info.owner == noL1,
                     "SWMR violated: block 0x%llx has writer L1 %d and "
                     "owner L1 %d",
                     (unsigned long long)block_addr, info.writer,
                     info.owner);
    }
}

void
SwmrMonitor::onDrop(L1Id id, Addr block_addr)
{
    onSetState(id, block_addr, CohState::I);
}

unsigned
SwmrMonitor::holders(Addr block_addr) const
{
    std::lock_guard<std::mutex> lk(mu_);
    auto it = blocks_.find(block_addr);
    if (it == blocks_.end())
        return 0;
    const auto &info = it->second;
    return static_cast<unsigned>(std::popcount(info.readers)) +
           (info.writer != noL1 ? 1u : 0u);
}

} // namespace ccsvm::coherence
