/**
 * @file
 * The APU baseline's GPU: VLIW SIMD units in the style of the Llano
 * A8-3850's Radeon (Table 2: "5 SIMD processing units with 16 VLIW
 * Radeon cores per SIMD unit, 600 MHz; each VLIW instruction is 1-4
 * operations").
 *
 * A SIMD unit is a ThroughputCore (core/throughput_core.hh), the
 * model it shares with the CCSVM MTTOP core: the same contexts, issue
 * loop and thread exit, with one lane per issued work-item op. What
 * is the GPU's own is VLIW packing and the memory path.
 *
 * The GPU is deliberately NOT a peer in the coherence protocol — that
 * is the whole point of the baseline. Work-item memory accesses go to
 * pinned physical memory through a per-unit read-tag cache and a
 * coalescer: concurrent misses to one 64-byte block merge into one
 * DRAM transaction (real GPUs coalesce strided accesses; the paper
 * notes this is why the APU's DRAM counts grow slower than the CPU's
 * in Figure 9). Writes are write-through with per-unit write
 * combining. Atomics are performed at memory, as on real GPUs of this
 * generation (paper Sec. 3.2.4 contrasts this with CCSVM's
 * atomics-at-L1).
 */

#ifndef CCSVM_APU_GPU_HH
#define CCSVM_APU_GPU_HH

#include <string>
#include <unordered_map>
#include <vector>

#include "base/types.hh"
#include "cache/cache_array.hh"
#include "core/throughput_core.hh"
#include "mem/dram.hh"
#include "mem/phys_mem.hh"
#include "sim/stats.hh"

namespace ccsvm::apu
{

/** One SIMD unit's parameters. */
struct GpuSimdUnitConfig
{
    Tick clockPeriod = 1667;  ///< 600 MHz
    unsigned lanes = 16;      ///< VLIW cores per unit
    unsigned numContexts = 256;
    /**
     * Average operations packed per VLIW instruction (1..4). At 4 the
     * APU GPU has 4x the CCSVM MTTOP's throughput; at 1 they are
     * equal — exactly the paper's framing of Table 2.
     */
    double vliwUtilization = 2.0;
    Addr cacheBytes = 16 * 1024;
    unsigned cacheAssoc = 4;
    Tick cacheHitLatency = 4 * 1667; ///< 4 GPU cycles
};

/** One VLIW SIMD processing unit. */
class GpuSimdUnit final : public core::ThroughputCore
{
  public:
    GpuSimdUnit(sim::EventQueue &eq, sim::StatRegistry &stats,
                const std::string &name, const GpuSimdUnitConfig &cfg,
                mem::DramCtrl &dram, mem::PhysMem &phys);

    /** Invalidate the read cache (kernel-boundary flush). */
    void flushCache();

  private:
    struct TagLine
    {
        Addr addr = invalidAddr;
        bool valid = false;
    };

    Cycles computeCycles(std::uint64_t n) override;
    void access(core::ThreadContext &tc) override;
    void doLoad(core::ThreadContext &tc);
    /** A store or an atomic: both perform at issue. */
    void doWrite(core::ThreadContext &tc);

    GpuSimdUnitConfig cfg_;
    mem::DramCtrl *dram_;
    mem::PhysMem *phys_;

    cache::CacheArray<TagLine> readCache_;
    /** Read misses in flight: coalesced joiners per block. */
    std::unordered_map<Addr, std::vector<core::ThreadContext *>>
        pendingReads_;
    Addr wcBlock_ = invalidAddr; ///< write-combining buffer tag

    sim::Counter &vliwInstrs_;
    sim::Counter &cacheHits_;
    sim::Counter &coalesced_;
};

} // namespace ccsvm::apu

#endif // CCSVM_APU_GPU_HH
