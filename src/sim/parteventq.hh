/**
 * @file
 * Partitioned event queues: conservative parallel discrete-event
 * simulation of one machine.
 *
 * A PartEngine owns one EventQueue per partition (CPU cluster, MTTOP
 * cluster, each directory/L2 home bank, and the DRAM/VM "system"
 * partition) and advances them in bounded time windows of width
 * `lookahead` — the minimum cross-partition message latency, which
 * the torus NoC's hop-latency floor provides. Within a window
 * [W, W+L) every partition runs independently: no message created in
 * the window can arrive before W+L, so no event can land in another
 * partition's past.
 *
 * Cross-partition sends go through per-destination mailboxes stamped
 * with a deterministic (sourcePartition, sourceSeq) tiebreaker. At
 * each window barrier the mailboxes are drained in sorted
 * (when, priority, sourcePartition, sourceSeq) order into the
 * destination queues, so the committed event order — and therefore
 * every statistic — is byte-identical at any host thread count and
 * independent of host interleaving. `threads == 1` runs the same
 * partition/window schedule inline on the calling thread.
 */

#ifndef CCSVM_SIM_PARTEVENTQ_HH
#define CCSVM_SIM_PARTEVENTQ_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "base/logging.hh"
#include "base/types.hh"
#include "sim/eventq.hh"

namespace ccsvm::sim
{

namespace detail
{
/** Queue whose window the calling host thread is currently running;
 * null outside PartEngine windows (host code, standalone queues).
 * constinit tells every including file that no dynamic TLS
 * initializer exists, so a read is one plain thread-local load. Without
 * it GCC calls through a weak TLS-init symbol first, and UBSan reports
 * that call as a load through a null pointer. */
extern constinit thread_local EventQueue *tlsActiveQueue;
} // namespace detail

/** The event queue whose event is executing on this host thread. */
inline EventQueue *
activeQueue()
{
    return detail::tlsActiveQueue;
}

/** Partition index of the executing event (0 outside an engine). */
inline int
activePartition()
{
    const EventQueue *q = detail::tlsActiveQueue;
    return q ? q->partition() : 0;
}

/**
 * Conservative window-synchronized engine over N partition queues.
 *
 * Construction adopts `partitions` fresh queues; components are then
 * built against `queue(p)` exactly as against a standalone
 * EventQueue. `run`/`runUntil` advance all partitions in lockstep
 * windows; `setThreads` picks how many host workers execute the
 * partitions of each window (the schedule itself never changes).
 */
class PartEngine
{
  public:
    static constexpr Tick maxTick = EventQueue::maxTick;
    /** Upper bound on partitions (also sizes stat shards). */
    static constexpr int kMaxPartitions = 64;

    /**
     * @param partitions number of partition queues (>= 1)
     * @param lookahead  conservative window width in ticks; must be
     *        > 0 and no larger than the minimum cross-partition
     *        message latency. Throws std::invalid_argument on 0.
     * @param threads    host worker count (clamped to >= 1)
     */
    PartEngine(int partitions, Tick lookahead, int threads = 1);
    ~PartEngine();

    PartEngine(const PartEngine &) = delete;
    PartEngine &operator=(const PartEngine &) = delete;

    int partitions() const { return static_cast<int>(queues_.size()); }
    EventQueue &queue(int p) { return *queues_[p]; }
    Tick lookahead() const { return lookahead_; }

    /** Host workers per window; 1 = run inline on the caller. */
    void setThreads(int n);
    int threads() const { return threads_; }

    /** Committed time: base tick of the last executed window. */
    Tick now() const { return now_; }

    /** Sum of events executed across all partitions. */
    std::uint64_t eventsExecuted() const;

    /** Number of synchronization windows executed so far; with
     * eventsExecuted() this gives the events-per-window grain the
     * engine amortizes its barriers over. */
    std::uint64_t windows() const { return windows_; }

    /** True when every queue and every mailbox is empty. */
    bool empty() const;

    /**
     * Post @p cb into @p target's partition at absolute tick
     * @p when. Must be called from an executing event of another
     * partition of this engine; @p when must be at least the
     * caller's now() + lookahead() (the conservative horizon).
     * Delivery order is deterministic: mailboxes are drained sorted
     * by (when, priority, sourcePartition, sourceSeq).
     */
    void post(EventQueue &target, Tick when, EventQueue::Callback cb,
              int priority = prioDefault);

    /** Run windows until every partition drains or time would pass
     * @p limit. @return the committed time. */
    Tick run(Tick limit = maxTick);

    /**
     * Run windows until @p done returns true (checked at each window
     * barrier) or every partition drains.
     * @return true iff the predicate was satisfied.
     */
    bool runUntil(const std::function<bool()> &done,
                  Tick limit = maxTick);

    /**
     * Hook invoked at every window barrier with the executed window
     * [base, end), after its partitions have joined — single-threaded
     * coordinator context where all partition state is quiescent.
     * The observability layer uses it to flush trace rings and take
     * time-series samples. The window schedule is thread-count
     * independent, so anything the hook derives from it is too.
     */
    using BarrierHook = std::function<void(Tick base, Tick end)>;
    void setBarrierHook(BarrierHook hook)
    {
        barrierHook_ = std::move(hook);
    }

  private:
    struct CrossEvent
    {
        Tick when;
        int priority;
        int srcPart;
        std::uint64_t srcSeq;
        EventQueue::Callback cb;
    };

    struct Mailbox
    {
        std::mutex mu;
        std::vector<CrossEvent> items;
    };

    /** Earliest pending tick across all queues (mailboxes drained). */
    Tick nextEventTime() const;
    /** Fast-forward every queue's clock to the window base @p w. */
    void advanceTo(Tick w);
    /** Sort and schedule every mailbox into its queue (barrier). */
    void drainMailboxes();
    /** Execute one window [*, end) across all partitions. */
    void runWindowAll(Tick end);
    /** Claim-and-run partitions of the published window. */
    void claimLoop();
    void workerLoop();
    void stopWorkers();

    std::vector<std::unique_ptr<EventQueue>> queues_;
    std::vector<std::unique_ptr<Mailbox>> mail_;
    Tick lookahead_;
    Tick now_ = 0;
    int threads_ = 1;
    std::uint64_t windows_ = 0;
    BarrierHook barrierHook_;

    /** Partitions with events in the current window, rebuilt at each
     * window start by the coordinator (workers read it only between
     * the gen_ publish and their pending_ decrement). */
    std::vector<int> active_;

    // Window hand-off: the coordinator publishes {gen_, windowEnd_,
    // active_} under mu_ and opens the door (open_); woken workers
    // register themselves (inWindow_) under mu_ before claiming
    // active-list indices via next_. The coordinator waits until
    // every claim is done and every entrant has left, then closes
    // the door — so a worker waking late for a finished window can
    // never claim against stale or in-flux state.
    std::mutex mu_;
    std::condition_variable cv_;
    std::condition_variable doneCv_;
    std::vector<std::thread> workers_;
    std::uint64_t gen_ = 0;
    Tick windowEnd_ = 0;
    bool stop_ = false;
    bool open_ = false;
    int inWindow_ = 0;
    std::atomic<int> next_{0};
    std::atomic<int> pending_{0};
};

/**
 * True when the executing event runs in a different partition of the
 * same engine as @p target — i.e. a call into a component owned by
 * @p target must be routed through PartEngine::post rather than made
 * directly. False for standalone queues, host-side code, and
 * same-partition calls, which keep their direct (legacy) semantics.
 */
inline bool
crossPartition(const EventQueue &target)
{
    const EventQueue *src = detail::tlsActiveQueue;
    return target.engine() != nullptr && src != nullptr &&
           src != &target && src->engine() == target.engine();
}

/**
 * Post @p cb to @p target's partition at the earliest conservative
 * tick: caller's now() + lookahead, plus optional @p extra ticks.
 * @pre crossPartition(target)
 */
inline void
postToPartition(EventQueue &target, EventQueue::Callback cb,
                Tick extra = 0, int priority = prioDefault)
{
    EventQueue *src = detail::tlsActiveQueue;
    ccsvm_assert(src && src->engine() == target.engine() &&
                     target.engine(),
                 "postToPartition outside an engine window");
    target.engine()->post(target,
                          src->now() + target.engine()->lookahead() +
                              extra,
                          std::move(cb), priority);
}

} // namespace ccsvm::sim

#endif // CCSVM_SIM_PARTEVENTQ_HH
