/**
 * @file
 * Deterministic transaction tracing.
 *
 * Components record span ("X") and instant ("i") events — coherence
 * transaction lifetimes, NoC packet flights, TLB walks/shootdowns,
 * kernel launches, engine windows — into per-partition ring buffers.
 * Recording is race-free under the partitioned engine for the same
 * reason every statistic is: the rings are per-partition slots
 * (PerPartition), and an event only ever touches the ring of the
 * partition it executes in. At every window barrier the engine
 * (single-threaded again) flushes the rings into one merged vector;
 * writeJson() sorts it by (when, srcPart, srcSeq) before emitting,
 * so the exported trace is byte-identical at any --sim-threads
 * value.
 *
 * The output is Chrome trace-event JSON (one "traceEvents" array of
 * complete/instant events plus thread_name metadata), loadable in
 * ui.perfetto.dev or chrome://tracing. Ticks are picoseconds; the
 * JSON "ts"/"dur" fields are microseconds as the format requires.
 *
 * Zero overhead when disabled: every record site is guarded by
 * `enabled(cat)`, a single load + mask test against a bitmask that is
 * 0 by default, and the engine barrier hook is only installed when a
 * category is on.
 */

#ifndef CCSVM_SIM_TRACE_HH
#define CCSVM_SIM_TRACE_HH

#include <cstdint>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "base/types.hh"
#include "sim/parteventq.hh"

namespace ccsvm::sim
{

/** Trace categories, one bit each (--trace-categories). */
enum TraceCat : unsigned
{
    traceCoh = 1u << 0,     ///< coherence transactions (L1s + directory)
    traceNoc = 1u << 1,     ///< torus packet flights
    traceVm = 1u << 2,      ///< TLB walks, shootdowns, fault relays
    traceKernel = 1u << 3,  ///< kernel launches, page-fault service
    traceEngine = 1u << 4,  ///< engine window barriers
};

/** All categories on. */
inline constexpr unsigned traceAll =
    traceCoh | traceNoc | traceVm | traceKernel | traceEngine;

/** Each category's --trace-categories name, in bit order: the one
 * table parseCategories, catName and catNameList read. */
inline constexpr std::pair<TraceCat, const char *> traceCatNames[] = {
    {traceCoh, "coh"},       {traceNoc, "noc"},
    {traceVm, "vm"},         {traceKernel, "kernel"},
    {traceEngine, "engine"},
};

/** One recorded event. `name` must be a string literal. */
struct TraceEvent
{
    Tick when = 0;           ///< start tick (ps)
    Tick dur = 0;            ///< span length; 0 for instants
    int srcPart = 0;         ///< recording partition
    std::uint64_t srcSeq = 0;///< per-partition record sequence
    unsigned cat = 0;        ///< single TraceCat bit
    char phase = 'X';        ///< 'X' complete span, 'i' instant
    int lane = 0;            ///< interned lane (Perfetto "thread") id
    const char *name = "";   ///< event name (static literal)
    std::uint64_t arg = 0;   ///< address / payload argument
    bool hasArg = false;
};

/** Per-machine trace recorder, owned by the StatRegistry. */
class Tracer
{
  public:
    /** @param partitions one ring per engine partition */
    explicit Tracer(int partitions = 1) : rings_(partitions) {}

    /** Is any record site for @p cat (a TraceCat bit) live? */
    bool enabled(unsigned cat) const { return (mask_ & cat) != 0; }
    bool anyEnabled() const { return mask_ != 0; }

    void setMask(unsigned mask) { mask_ = mask; }
    unsigned mask() const { return mask_; }

    /**
     * Parse a --trace-categories list ("coh,noc,vm,kernel,engine" or
     * "all") into a bitmask. Returns false on an unknown token
     * (leaving @p mask untouched).
     */
    static bool parseCategories(const std::string &list, unsigned &mask);

    /** Category bit -> name, for JSON "cat" fields. */
    static const char *catName(unsigned bit);

    /** Every category name, in bit order: "coh, noc, ...". */
    static std::string catNameList();

    /**
     * Intern a lane (rendered as a Perfetto thread row). Host-side
     * only — call during machine construction, never from events.
     */
    int lane(const std::string &name);

    /** Ring capacity per partition (events kept between barriers plus
     * headroom; older events are overwritten and counted as dropped).
     * Host-side only. */
    void setRingCapacity(std::size_t cap);

    /** Record a complete span [start, end). */
    void
    complete(unsigned cat, int lane, const char *name, Tick start,
             Tick end, std::uint64_t arg, bool has_arg = true)
    {
        TraceEvent ev;
        ev.when = start;
        ev.dur = end - start;
        ev.cat = cat;
        ev.phase = 'X';
        ev.lane = lane;
        ev.name = name;
        ev.arg = arg;
        ev.hasArg = has_arg;
        push(ev);
    }

    /** Record an instant event. */
    void
    instant(unsigned cat, int lane, const char *name, Tick when,
            std::uint64_t arg, bool has_arg = true)
    {
        TraceEvent ev;
        ev.when = when;
        ev.cat = cat;
        ev.phase = 'i';
        ev.lane = lane;
        ev.name = name;
        ev.arg = arg;
        ev.hasArg = has_arg;
        push(ev);
    }

    /**
     * Drain every partition ring into the merged buffer, in fixed
     * partition order. Must run at a window barrier (or after the
     * run), when no partition worker is recording.
     */
    void flush();

    /** Total events recorded / overwritten before a flush. Host-side
     * only (summed from per-partition ring sequence counters). */
    std::uint64_t recorded() const;
    std::uint64_t dropped() const;

    /** Flushed events in deterministic (when, srcPart, srcSeq)
     * order. Flushes any ring remainder first. */
    const std::vector<TraceEvent> &events();

    /** Write the Chrome trace-event JSON document. */
    void writeJson(std::ostream &os);

  private:
    struct Ring
    {
        std::vector<TraceEvent> buf;
        std::size_t next = 0;     ///< overwrite cursor once full
        bool wrapped = false;
        std::uint64_t seq = 0;    ///< lifetime records in this ring
        std::uint64_t dropped = 0;
    };

    void push(TraceEvent ev);
    void sortMerged();

    unsigned mask_ = 0;
    std::size_t ringCap_ = std::size_t(1) << 16;
    std::vector<std::string> lanes_;
    PerPartition<Ring> rings_;
    std::vector<TraceEvent> merged_;
    bool sorted_ = true;
};

} // namespace ccsvm::sim

#endif // CCSVM_SIM_TRACE_HH
