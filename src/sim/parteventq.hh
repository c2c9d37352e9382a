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
 * Cross-partition sends go into one post list per source partition,
 * in post order. Each window barrier drains the lists source by
 * source, in partition index order, into the destination queues. A
 * queue runs each (when, priority) key's events in insertion order,
 * so every key commits its local events and then its posts by
 * (source partition, post order), as a sort by (when, priority,
 * source partition, post order) would: the committed event order —
 * and therefore every statistic — is byte-identical at any host
 * thread count and independent of host interleaving.
 * `threads == 1` runs the same partition/window schedule inline on
 * the calling thread. A partition that sits out windows keeps its
 * clock until run or runUntil returns; then every clock is forwarded
 * to the committed time, for host code that schedules between runs.
 *
 * With more threads every partition has an owner thread, worked out
 * from measured load at the first threaded window and then every
 * fixed number of windows: heaviest first by the events executed
 * since the last rebalance, each partition goes to the least-loaded
 * thread (LPT), so the busiest one lands on thread 0, the caller of
 * run. A window whose active partitions all belong to thread 0 runs
 * inline, with no hand-off. Any other is handed to the workers: each
 * thread runs the active partitions it owns, then steals any still
 * unclaimed, so a late or descheduled worker never stalls a window.
 * Both waits of the hand-off (a worker's for the next window, on
 * gen_, and the caller's for the join, on door_) spin for a short
 * fixed budget, then block in that atomic's wait.
 *
 * A post list needs no lock: only the host thread running its source
 * partition's window appends to it, and the window join (the caller
 * closes the door and waits until every worker inside has left)
 * orders every append before the drain.
 */

#ifndef CCSVM_SIM_PARTEVENTQ_HH
#define CCSVM_SIM_PARTEVENTQ_HH

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
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
 * One T per engine partition: the storage of every statistic and
 * trace ring. An event writes only the slot of activePartition(), so
 * partitions running on different host threads never share a slot;
 * readers fold the slots in index order, on the host or at a window
 * barrier. Host code and standalone queues use slot 0. Writing from a
 * partition with no slot is a wiring bug (a stat sized for a smaller
 * engine) and panics instead of writing out of bounds.
 */
template <typename T>
class PerPartition
{
  public:
    explicit PerPartition(int slots = 1)
        : size_(slots), slots_(std::make_unique<T[]>(slots))
    {
        ccsvm_assert(slots >= 1, "PerPartition needs at least one slot");
    }

    /** The executing partition's slot. */
    T &
    local()
    {
        const int p = activePartition();
        ccsvm_assert(p < size_, "partition %d written through a "
                     "%d-slot statistic", p, size_);
        return slots_[p];
    }

    int size() const { return size_; }
    T *begin() { return slots_.get(); }
    T *end() { return slots_.get() + size_; }
    const T *begin() const { return slots_.get(); }
    const T *end() const { return slots_.get() + size_; }

  private:
    int size_;
    std::unique_ptr<T[]> slots_;
};

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

    /** Host workers per window; 1 = run inline on the caller. A
     * count above partitions() runs one worker per partition. */
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

    /** True when every queue and every post list is empty. */
    bool empty() const;

    /**
     * Post @p cb into @p target's partition at absolute tick
     * @p when. Must be called from an executing event of another
     * partition of this engine; @p when must be at least the
     * caller's now() + lookahead() (the conservative horizon).
     * Delivery order is deterministic: at the barrier each
     * (when, priority) key receives its posts by (source partition,
     * post order), after the target's own events on that key.
     */
    void post(EventQueue &target, Tick when, EventQueue::Callback cb,
              int priority = prioDefault);

    /** Run windows until every partition drains or time would pass
     * @p limit. @return the committed time. */
    Tick run(Tick limit = maxTick);

    /**
     * Run windows until @p done returns true (checked at each window
     * barrier) or every partition drains. @p done observes state and
     * never schedules: like a barrier hook, it runs before the
     * partitions that sat out windows have their clocks forwarded.
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
     * independent, so anything the hook derives from it is too. A
     * hook observes state and never schedules: a partition that sat
     * out windows keeps its clock until the run returns.
     */
    using BarrierHook = std::function<void(Tick base, Tick end)>;
    void setBarrierHook(BarrierHook hook)
    {
        barrierHook_ = std::move(hook);
    }

  private:
    struct CrossEvent
    {
        int dest;
        int priority;
        Tick when;
        EventQueue::Callback cb;
    };

    /** One source partition's posts since the last barrier, to every
     * destination, in post order; appended only by the host thread
     * running that partition's window. Cache-line aligned so sources
     * running on different threads share no line. */
    struct alignas(64) Outbox
    {
        std::vector<CrossEvent> posts;
    };

    /** The window loop of run and runUntil: stops when @p done
     * returns true at a barrier (@return true), or when every
     * partition drains or time would pass @p limit. Then it forwards
     * every clock to the committed time. */
    template <typename Done>
    bool runWindows(const Done &done, Tick limit);
    /** Pool workers beside the coordinator: threads() capped at one
     * per partition. */
    int poolSize() const;
    /** Earliest pending tick across all queues (posts drained). */
    Tick nextEventTime() const;
    /** Schedule every post list into the destination queues, sources
     * in index order, and empty it (barrier). */
    void drainPosts();
    /** Execute one window [*, end) across all partitions. */
    void runWindowAll(Tick end);
    /** Give every partition an owner thread by LPT over the events
     * it executed since the last rebalance. */
    void rebalance();
    /** Run partition @p p's events before @p end on this thread. */
    void runPartition(int p, Tick end);
    /** Run the published window's partitions as host thread
     * @p self: first those it owns, then any still unclaimed. */
    void claimLoop(int self);
    void workerLoop(int self);
    void stopWorkers();

    std::vector<std::unique_ptr<EventQueue>> queues_;
    std::vector<Outbox> out_;
    Tick lookahead_;
    Tick now_ = 0;
    int threads_ = 1;
    std::uint64_t windows_ = 0;
    BarrierHook barrierHook_;

    /** Partitions with events in the current window, rebuilt at each
     * window start by the coordinator; workers read it only inside
     * the door. */
    std::vector<int> active_;

    // Owner map, per partition: the host thread that runs it first
    // in a threaded window (0 = the caller of run) and its
    // eventsExecuted() at the last rebalance. byLoad_ and
    // threadLoad_ are rebalance()'s scratch, kept so that a
    // rebalance allocates nothing once the engine runs.
    std::vector<int> owner_;
    std::vector<std::uint64_t> loadMark_;
    std::vector<int> byLoad_;
    std::vector<std::uint64_t> threadLoad_;
    /** windows() count from which the next threaded window
     * rebalances (0: at the first one). */
    std::uint64_t rebalanceAt_ = 0;

    // Window hand-off. The coordinator (the caller of run) publishes
    // {windowEnd_, active_, claimed_: set for its own partitions},
    // opens the door and bumps gen_. Workers spin on gen_, then wait
    // on it. A worker enters by adding kEntrant to door_ while its
    // open bit is set (one CAS, so a worker that finds the door
    // closed changes nothing), claims and runs partitions, and
    // leaves by taking kEntrant off again. Once every active
    // partition has run or is held by a worker inside, the
    // coordinator clears the open bit and spins, then waits on door_,
    // until door_ reaches 0; the last worker out notifies it. Only
    // then may active_, owner_ and claimed_ change, so a worker
    // waking late for a finished window never claims against stale
    // state. Each side changes its word before it notifies, and a
    // wait rechecks the word before it blocks, so no wakeup is lost.
    // Both words are 32-bit: libstdc++ blocks a wait on a 32-bit
    // atomic in a futex on the word itself, but a 64-bit one on a
    // proxy word from a process-wide table, which every notify
    // increments and wakes every waiter on.
    Tick windowEnd_ = 0;
    std::unique_ptr<std::atomic<bool>[]> claimed_;
    std::atomic<std::uint32_t> gen_{0};
    std::atomic<std::uint32_t> door_{0};
    std::atomic<bool> stop_{false};
    /** Declared last: the workers use every member above. */
    std::vector<std::thread> workers_;
};

/**
 * True when the executing event runs in a different partition of the
 * same engine as @p target — i.e. a call into a component owned by
 * @p target must be routed through PartEngine::post rather than made
 * directly. False for standalone queues, host-side code, and
 * same-partition calls, which call directly.
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
 * tick: the caller's now() + lookahead, default priority.
 * @pre crossPartition(target)
 */
inline void
postToPartition(EventQueue &target, EventQueue::Callback cb)
{
    EventQueue *src = detail::tlsActiveQueue;
    ccsvm_assert(src && src->engine() == target.engine() &&
                     target.engine(),
                 "postToPartition outside an engine window");
    target.engine()->post(target,
                          src->now() + target.engine()->lookahead(),
                          std::move(cb));
}

/**
 * Run @p fn in @p owner's partition: the one way a component calls
 * into another partition's state (the torus's per-hop post, at a
 * computed arrival tick, is the only other cross-partition send).
 * Inline, before callIn returns, when the caller already runs in that
 * partition or outside an engine window (host code, standalone
 * queues); otherwise posted to @p owner at the caller's now() +
 * lookahead().
 */
template <typename F>
void
callIn(EventQueue &owner, F &&fn)
{
    if (crossPartition(owner))
        postToPartition(owner, std::forward<F>(fn));
    else
        fn();
}

/**
 * The completion to hand to work started by callIn(owner, ...), made
 * in the caller's partition: when @p owner's partition calls it, it
 * runs @p done back in the caller's partition one lookahead later.
 * @p done itself when no partition boundary lies between the two.
 */
template <typename... Args>
std::function<void(Args...)>
replyFrom(const EventQueue &owner, std::function<void(Args...)> done)
{
    if (!crossPartition(owner))
        return done;
    return [src = detail::tlsActiveQueue,
            done = std::move(done)](Args... args) mutable {
        postToPartition(*src, [done = std::move(done),
                               args...]() mutable { done(args...); });
    };
}

} // namespace ccsvm::sim

#endif // CCSVM_SIM_PARTEVENTQ_HH
