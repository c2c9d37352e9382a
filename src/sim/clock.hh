/**
 * @file
 * Clock domains over the global picosecond event queue.
 *
 * Each component (CPU cores, MTTOP cores, NoC, L2) belongs to a clock
 * domain with its own period; clockEdge() aligns scheduling to that
 * domain's edges, which is how the paper's mixed-frequency chip
 * (2.9 GHz CPUs, 600 MHz MTTOPs) composes on one event queue.
 */

#ifndef CCSVM_SIM_CLOCK_HH
#define CCSVM_SIM_CLOCK_HH

#include "base/intmath.hh"
#include "base/types.hh"
#include "sim/eventq.hh"

namespace ccsvm::sim
{

/** A named clock with a fixed period, bound to an event queue. */
class ClockDomain
{
  public:
    ClockDomain(EventQueue &eq, Tick period_ps)
        : eq_(&eq), period_(period_ps)
    {
        ccsvm_assert(period_ps > 0, "clock period must be positive");
    }

    Tick period() const { return period_; }
    EventQueue &eventq() const { return *eq_; }

    /** Ticks corresponding to @p n cycles of this clock. */
    Tick cyclesToTicks(Cycles n) const { return n * period_; }

    /** Cycles (rounded up) covering @p t ticks. */
    Cycles ticksToCycles(Tick t) const { return divCeil(t, period_); }

    /**
     * The next clock edge at or after the current time, plus @p n
     * further cycles.
     */
    Tick
    clockEdge(Cycles n = 0) const
    {
        // Periods are not powers of two (345 ps for 2.9 GHz), so align
        // arithmetically rather than with bit masks.
        const Tick now = eq_->now();
        const Tick aligned = divCeil(now, period_) * period_;
        return aligned + n * period_;
    }

  private:
    EventQueue *eq_;
    Tick period_;
};

} // namespace ccsvm::sim

#endif // CCSVM_SIM_CLOCK_HH
