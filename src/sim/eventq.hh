/**
 * @file
 * The discrete-event simulation kernel.
 *
 * An EventQueue orders the simulated work of one partition (or, for
 * standalone components and the APU machine, of a whole machine).
 * Ticks are picoseconds; events at equal ticks are ordered by
 * (priority, insertion sequence) so simulations are fully
 * deterministic. A queue is single-threaded; concurrency comes from
 * sim::PartEngine running several queues in conservative windows
 * (see parteventq.hh).
 *
 * The queue is time-bucketed. It orders only the distinct
 * (when, priority) keys; each key holds a FIFO of the callbacks
 * scheduled for it, in insertion order. The MTTOP's 1,280 hardware
 * contexts put most events on a clock edge that already has pending
 * work, so most schedules are an O(1) append to an existing FIFO.
 * Callbacks live in one slot pool shared by every key, with inline
 * storage for captures of up to Callback::inlineBytes, so steady-state
 * scheduling allocates nothing.
 */

#ifndef CCSVM_SIM_EVENTQ_HH
#define CCSVM_SIM_EVENTQ_HH

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <functional>
#include <limits>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "base/logging.hh"
#include "base/types.hh"

namespace ccsvm::sim
{

class PartEngine;

/** Default event priorities; lower values run first within a tick. */
enum : int
{
    prioNetwork = -10,
    prioDefault = 0,
    prioCpu = 10,
    prioStats = 100,
};

/**
 * Move-only `void()` callable with inline storage for a capture of up
 * to N bytes. Callback, the event type, holds 128; the network's
 * delivery (noc::Network::Deliver) holds 88, a receiving controller
 * and the 80 B CohMsg it receives.
 *
 * A capture of up to N bytes (pointer-aligned, with a noexcept move)
 * is stored in the object itself. Callback's 128 bytes cover the
 * memory path's frequent events: a torus hop, which holds its whole
 * packet and with it the delivery, a home bank's delayed send, which
 * holds the message itself, and the L1 completion (16 B). A larger
 * capture falls back to one heap allocation. Moving relocates the
 * capture and leaves the source empty.
 */
template <std::size_t N>
class InlineCallback
{
  public:
    static constexpr std::size_t inlineBytes = N;

    InlineCallback() noexcept = default;

    /** Wrap @p f (implicit, like std::function's constructor). */
    template <typename F, typename = std::enable_if_t<!std::is_same_v<
                              std::decay_t<F>, InlineCallback>>>
    InlineCallback(F &&f)
    {
        emplace(std::forward<F>(f));
    }

    /** Replace the held callable with @p f, constructed in place. */
    template <typename F, typename = std::enable_if_t<!std::is_same_v<
                              std::decay_t<F>, InlineCallback>>>
    InlineCallback &
    operator=(F &&f)
    {
        reset();
        emplace(std::forward<F>(f));
        return *this;
    }

    InlineCallback(InlineCallback &&o) noexcept { take(o); }

    InlineCallback &
    operator=(InlineCallback &&o) noexcept
    {
        if (this != &o) {
            reset();
            take(o);
        }
        return *this;
    }

    InlineCallback(const InlineCallback &) = delete;
    InlineCallback &operator=(const InlineCallback &) = delete;

    ~InlineCallback() { reset(); }

    /** @pre *this holds a callable. */
    void operator()() { ops_->invoke(buf_); }

    /** True when a callable of type F is held without a heap block. */
    template <typename F>
    static constexpr bool holdsInline = sizeof(F) <= inlineBytes &&
        alignof(F) <= alignof(void *) &&
        std::is_nothrow_move_constructible_v<F>;

  private:
    struct Ops
    {
        void (*invoke)(void *buf);
        /** Move-construct into dst and destroy src; null when copying
         * the buffer's bytes does both. */
        void (*relocate)(void *dst, void *src) noexcept;
        /** Null when destruction is a no-op. */
        void (*destroy)(void *buf) noexcept;
    };

    /** The callable in @p buf: in place, or behind a heap pointer. */
    template <typename D>
    static D &
    held(void *buf) noexcept
    {
        if constexpr (holdsInline<D>)
            return *std::launder(static_cast<D *>(buf));
        else
            return **std::launder(static_cast<D **>(buf));
    }

    template <typename D>
    static const Ops *
    opsFor() noexcept
    {
        static constexpr Ops ops = [] {
            Ops o{[](void *buf) { held<D>(buf)(); }, nullptr, nullptr};
            if constexpr (!holdsInline<D>) {
                o.destroy = [](void *buf) noexcept {
                    delete &held<D>(buf);
                };
            } else {
                if constexpr (!std::is_trivially_copyable_v<D>)
                    o.relocate = [](void *dst, void *src) noexcept {
                        D &s = held<D>(src);
                        ::new (dst) D(std::move(s));
                        s.~D();
                    };
                if constexpr (!std::is_trivially_destructible_v<D>)
                    o.destroy = [](void *buf) noexcept {
                        held<D>(buf).~D();
                    };
            }
            return o;
        }();
        return &ops;
    }

    /** @pre *this is empty. */
    template <typename F>
    void
    emplace(F &&f)
    {
        using D = std::decay_t<F>;
        if constexpr (holdsInline<D>)
            ::new (static_cast<void *>(buf_)) D(std::forward<F>(f));
        else
            ::new (static_cast<void *>(buf_)) D *(new D(std::forward<F>(f)));
        ops_ = opsFor<D>();
    }

    void
    take(InlineCallback &o) noexcept
    {
        ops_ = o.ops_;
        if (!ops_)
            return;
        if (ops_->relocate)
            ops_->relocate(buf_, o.buf_);
        else
            std::memcpy(buf_, o.buf_, inlineBytes);
        o.ops_ = nullptr;
    }

    void
    reset() noexcept
    {
        if (ops_ && ops_->destroy)
            ops_->destroy(buf_);
        ops_ = nullptr;
    }

    alignas(void *) unsigned char buf_[inlineBytes];
    const Ops *ops_ = nullptr;
};

/** The event type. */
using Callback = InlineCallback<128>;

/**
 * Deterministic discrete-event queue.
 *
 * Events are arbitrary callables, run in (when, priority, insertion)
 * order. Internally the distinct pending (when, priority) keys sit in
 * a small vector sorted descending, so the next key is its back and a
 * schedule finds its key by binary search. Each key links a FIFO of
 * slots in the shared callback pool; a freed slot goes on a free list
 * and is reused, so storage stays proportional to the pending events.
 *
 * The queue itself is not thread safe: only one host thread may
 * schedule into or run it at a time.
 */
class EventQueue
{
  public:
    using Callback = sim::Callback;

    static constexpr Tick maxTick = std::numeric_limits<Tick>::max();

    /** Current simulated time. */
    Tick now() const { return now_; }

    /** Total events executed so far (for progress/perf reporting). */
    std::uint64_t eventsExecuted() const { return executed_; }

    bool empty() const { return keys_.empty(); }
    std::size_t size() const { return size_; }

    /**
     * Schedule @p cb to run at absolute time @p when, after every
     * pending event with the same (when, priority).
     *
     * Takes the callable by forwarding reference: it is constructed
     * directly in its pool slot.
     * @pre when >= now()
     */
    template <typename F>
    void
    schedule(Tick when, F &&cb, int priority = prioDefault)
    {
        ccsvm_assert(when >= now_,
                     "scheduling in the past: when=%llu now=%llu",
                     (unsigned long long)when, (unsigned long long)now_);
        std::uint32_t s = free_;
        if (s != nil) {
            free_ = slots_[s].next;
        } else {
            s = static_cast<std::uint32_t>(slots_.size());
            slots_.emplace_back();
        }
        slots_[s].cb = std::forward<F>(cb);
        ++size_;

        // keys_ is sorted descending: skip every key that runs later.
        const auto it = std::partition_point(
            keys_.begin(), keys_.end(), [&](const Key &k) {
                return k.when != when ? k.when > when
                                      : k.priority > priority;
            });
        if (it != keys_.end() && it->when == when &&
            it->priority == priority) {
            slots_[it->tail].next = s;
            it->tail = s;
        } else {
            keys_.insert(it, Key{when, priority, s, s});
        }
    }

    /** Schedule @p cb to run @p delta ticks from now. */
    template <typename F>
    void
    scheduleIn(Tick delta, F &&cb, int priority = prioDefault)
    {
        schedule(now_ + delta, std::forward<F>(cb), priority);
    }

    /**
     * Pop and run the earliest event.
     * @return false if the queue was empty.
     */
    bool
    runOne()
    {
        if (keys_.empty())
            return false;
        // The back key is re-read for every event: a callback may
        // add a same-tick key with a lower priority value, which must
        // run before the rest of the current key.
        Key &k = keys_.back();
        const std::uint32_t s = k.head;
        now_ = k.when;
        if (s == k.tail)
            keys_.pop_back();
        else
            k.head = slots_[s].next;
        // Move the callback out and free its slot before running it:
        // the callback may schedule, which can grow (reallocate) the
        // pool.
        Callback cb = std::move(slots_[s].cb);
        slots_[s].next = free_;
        free_ = s;
        --size_;
        ++executed_;
        cb();
        return true;
    }

    /**
     * Run events until the queue drains or simulated time would exceed
     * @p limit.
     * @return the final simulated time.
     */
    Tick
    run(Tick limit = maxTick)
    {
        while (!keys_.empty() && keys_.back().when <= limit)
            runOne();
        return now_;
    }

    /**
     * Run until @p done returns true (checked after every event) or the
     * queue drains.
     * @return true iff the predicate was satisfied.
     */
    bool
    runUntil(const std::function<bool()> &done, Tick limit = maxTick)
    {
        if (done())
            return true;
        while (!keys_.empty() && keys_.back().when <= limit) {
            runOne();
            if (done())
                return true;
        }
        return false;
    }

    /**
     * Run every event strictly before @p end (one conservative time
     * window). Events an event schedules inside the window run too.
     */
    void
    runWindow(Tick end)
    {
        while (!keys_.empty() && keys_.back().when < end)
            runOne();
    }

    /** Timestamp of the earliest pending event, or maxTick. */
    Tick
    peekWhen() const
    {
        return keys_.empty() ? maxTick : keys_.back().when;
    }

    /** Partition engine this queue belongs to (null standalone). */
    PartEngine *engine() const { return engine_; }
    /** Partition index within the engine (0 standalone). */
    int partition() const { return part_; }

  private:
    friend class PartEngine;

    /** End of the free list. */
    static constexpr std::uint32_t nil = ~std::uint32_t{0};

    /** One distinct pending (when, priority): a FIFO of slots from
     * head to tail. The tail's next link is never read. */
    struct Key
    {
        Tick when;
        int priority;
        std::uint32_t head;
        std::uint32_t tail;
    };

    /** A pooled callback; next links its key's FIFO or, once the
     * slot is free, the free list. */
    struct Slot
    {
        Callback cb;
        std::uint32_t next = nil;
    };

    /** Pending keys sorted descending: back() is the next to run. */
    std::vector<Key> keys_;
    std::vector<Slot> slots_;
    std::uint32_t free_ = nil;
    std::size_t size_ = 0;
    Tick now_ = 0;
    std::uint64_t executed_ = 0;

    /** Set by PartEngine's constructor. */
    PartEngine *engine_ = nullptr;
    int part_ = 0;
};

} // namespace ccsvm::sim

#endif // CCSVM_SIM_EVENTQ_HH
