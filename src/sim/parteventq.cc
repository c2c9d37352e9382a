/**
 * @file
 * PartEngine implementation: window loop, post-list barriers, and
 * the persistent worker pool.
 */

#include "sim/parteventq.hh"

#include <algorithm>
#include <chrono>
#include <stdexcept>

namespace ccsvm::sim
{

namespace detail
{
constinit thread_local EventQueue *tlsActiveQueue = nullptr;
} // namespace detail

namespace
{

/** Windows between two owner-map rebalances: often enough to follow
 * a workload's phases, rarely enough that the rebalance (a sort of
 * the partitions) costs nothing measurable. */
constexpr std::uint64_t kRebalanceWindows = 1024;

/** How long a hand-off side spins before it blocks in its atomic's
 * wait: long enough to span the inline windows between most threaded
 * ones, so a worker in steady use rarely blocks, and short enough
 * that an idle engine's workers cost no CPU. */
constexpr std::chrono::microseconds kSpin{50};

/** door_: the open bit, plus kEntrant per worker inside. */
constexpr std::uint32_t kOpen = 1;
constexpr std::uint32_t kEntrant = 2;

void
cpuRelax()
{
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#elif defined(__aarch64__)
    asm volatile("yield");
#endif
}

/** Spin until @p ready() holds or the kSpin budget runs out.
 * @return whether @p ready() held. The clock is read only every 64
 * polls, from the 64th on, so a short wait never reads it. */
template <typename Ready>
bool
spinUntil(const Ready &ready)
{
    using Clock = std::chrono::steady_clock;
    Clock::time_point until{};
    for (unsigned i = 1;; ++i) {
        if (ready())
            return true;
        cpuRelax();
        if (i % 64 == 0) {
            const Clock::time_point now = Clock::now();
            if (i == 64)
                until = now + kSpin;
            else if (now >= until)
                return false;
        }
    }
}

} // namespace

PartEngine::PartEngine(int partitions, Tick lookahead, int threads)
    : lookahead_(lookahead)
{
    if (lookahead == 0)
        throw std::invalid_argument(
            "PartEngine: lookahead must be > 0 (a zero window gives "
            "no conservative horizon)");
    if (partitions < 1)
        throw std::invalid_argument(
            "PartEngine: needs at least one partition");
    queues_.reserve(partitions);
    out_.resize(partitions);
    owner_.resize(partitions);
    loadMark_.resize(partitions);
    byLoad_.resize(partitions);
    claimed_ = std::make_unique<std::atomic<bool>[]>(partitions);
    for (int p = 0; p < partitions; ++p) {
        queues_.push_back(std::make_unique<EventQueue>());
        queues_.back()->engine_ = this;
        queues_.back()->part_ = p;
    }
    setThreads(threads);
}

PartEngine::~PartEngine() { stopWorkers(); }

void
PartEngine::setThreads(int n)
{
    threads_ = std::max(1, n);
    // The pool is (re)built lazily in runWindowAll: machines set the
    // thread count at construction, long before the first window.
    if (static_cast<int>(workers_.size()) != poolSize())
        stopWorkers();
    // Owners name threads of the old count: map again at the next
    // threaded window.
    rebalanceAt_ = 0;
}

int
PartEngine::poolSize() const
{
    // A window claims at most one queue per partition, so workers
    // past partitions() - 1 (the coordinator is the other) never run.
    return std::min(threads_, partitions()) - 1;
}

void
PartEngine::stopWorkers()
{
    if (workers_.empty())
        return;
    stop_.store(true);
    gen_.fetch_add(1);
    gen_.notify_all();
    for (auto &w : workers_)
        w.join();
    workers_.clear();
    stop_.store(false);
}

std::uint64_t
PartEngine::eventsExecuted() const
{
    std::uint64_t n = 0;
    for (const auto &q : queues_)
        n += q->eventsExecuted();
    return n;
}

bool
PartEngine::empty() const
{
    for (const auto &q : queues_)
        if (!q->empty())
            return false;
    for (const Outbox &o : out_)
        if (!o.posts.empty())
            return false;
    return true;
}

void
PartEngine::post(EventQueue &target, Tick when,
                 EventQueue::Callback cb, int priority)
{
    EventQueue *src = detail::tlsActiveQueue;
    ccsvm_assert(src && src->engine_ == this &&
                     target.engine_ == this && src != &target,
                 "PartEngine::post: not a cross-partition send");
    ccsvm_assert(when >= src->now() + lookahead_,
                 "PartEngine::post inside the conservative horizon: "
                 "when=%llu src-now=%llu lookahead=%llu",
                 (unsigned long long)when,
                 (unsigned long long)src->now(),
                 (unsigned long long)lookahead_);
    // Single writer, the thread running src's window: no lock.
    out_[src->part_].posts.emplace_back(target.part_, priority, when,
                                        std::move(cb));
}

void
PartEngine::drainPosts()
{
    // clear() keeps each list's capacity, so the steady state
    // allocates nothing.
    for (std::size_t s = 0; s < out_.size(); ++s) {
        for (CrossEvent &ev : out_[s].posts) {
            // The destination's schedule checks the post against its
            // own clock; a destination that sat out windows has not
            // reached the committed time yet, so check that here.
            ccsvm_assert(ev.when >= now_,
                         "post from partition %zu to partition %d "
                         "before the committed time: when=%llu "
                         "now=%llu prio=%d",
                         s, ev.dest, (unsigned long long)ev.when,
                         (unsigned long long)now_, ev.priority);
            queues_[ev.dest]->schedule(ev.when, std::move(ev.cb),
                                       ev.priority);
        }
        out_[s].posts.clear();
    }
}

Tick
PartEngine::nextEventTime() const
{
    Tick t = maxTick;
    for (const auto &q : queues_)
        t = std::min(t, q->peekWhen());
    return t;
}

void
PartEngine::rebalance()
{
    // A partition's load is the events it executed since the last
    // rebalance, plus one so that partitions with no history yet
    // still spread over the threads. Heaviest first, ties by index,
    // each to the least-loaded thread, ties to the lower index: the
    // heaviest partition lands on thread 0, the caller of run.
    const int n = partitions();
    const auto load = [&](int p) {
        return queues_[p]->eventsExecuted() - loadMark_[p] + 1;
    };
    for (int p = 0; p < n; ++p)
        byLoad_[p] = p;
    std::sort(byLoad_.begin(), byLoad_.end(), [&](int a, int b) {
        return load(a) != load(b) ? load(a) > load(b) : a < b;
    });
    threadLoad_.assign(poolSize() + 1, 0);
    for (const int p : byLoad_) {
        const auto least =
            std::min_element(threadLoad_.begin(), threadLoad_.end());
        *least += load(p);
        owner_[p] = static_cast<int>(least - threadLoad_.begin());
    }
    for (int p = 0; p < n; ++p)
        loadMark_[p] = queues_[p]->eventsExecuted();
    rebalanceAt_ = windows_ + kRebalanceWindows;
}

void
PartEngine::runPartition(int p, Tick end)
{
    EventQueue *q = queues_[p].get();
    detail::tlsActiveQueue = q;
    q->runWindow(end);
    detail::tlsActiveQueue = nullptr;
}

void
PartEngine::claimLoop(int self)
{
    const auto claim = [&](int p) {
        // The load skips the exchange's cache-line write for a
        // partition another thread already holds.
        return !claimed_[p].load(std::memory_order_relaxed) &&
               !claimed_[p].exchange(true);
    };
    // Thread 0's partitions were claimed when the window was
    // published, so a fast worker never takes the caller's (the
    // heaviest) partition before the caller reaches it.
    for (const int p : active_)
        if (owner_[p] == self && (self == 0 || claim(p)))
            runPartition(p, windowEnd_);
    for (const int p : active_)
        if (claim(p))
            runPartition(p, windowEnd_);
}

void
PartEngine::workerLoop(int self)
{
    std::uint32_t seen = 0;
    for (;;) {
        // stopWorkers bumps gen_ too.
        if (!spinUntil([&] { return gen_.load() != seen; }))
            gen_.wait(seen);
        if (stop_.load())
            return;
        seen = gen_.load();
        // A worker that slept through a whole window finds the door
        // closed: it must not claim, because the coordinator has
        // moved on and may be rebuilding active_ for a later window.
        bool entered = false;
        for (std::uint32_t door = door_.load(); (door & kOpen) && !entered;)
            entered = door_.compare_exchange_weak(door, door + kEntrant);
        if (!entered)
            continue;
        claimLoop(self);
        // The last worker out of a closed door wakes the coordinator,
        // should it wait at the join.
        if (door_.fetch_sub(kEntrant) == kEntrant)
            door_.notify_one();
    }
}

void
PartEngine::runWindowAll(Tick end)
{
    ++windows_;
    // Only partitions holding an event inside [*, end) do any work
    // this window. The active set is fixed for the whole window:
    // in-window schedules stay partition-local and cross-partition
    // sends sit in post lists until the next barrier.
    active_.clear();
    for (int p = 0; p < partitions(); ++p)
        if (queues_[p]->peekWhen() < end)
            active_.push_back(p);
    const int pool = poolSize();
    int foreign = 0; // active partitions owned by a worker
    if (pool > 0 && active_.size() > 1) {
        if (windows_ >= rebalanceAt_)
            rebalance();
        for (const int p : active_)
            foreign += owner_[p] != 0;
    }
    if (foreign == 0) {
        // Nothing to overlap, or all of it belongs to the calling
        // thread: run inline with no worker hand-off. Identical
        // partition/window schedule to the threaded path (partition
        // order within a window is unobservable — the queues are
        // independent until the next barrier).
        for (const int p : active_)
            runPartition(p, end);
        return;
    }
    if (workers_.empty()) {
        workers_.reserve(pool);
        for (int i = 1; i <= pool; ++i)
            workers_.emplace_back([this, i] { workerLoop(i); });
    }
    windowEnd_ = end;
    for (const int p : active_)
        claimed_[p].store(owner_[p] == 0, std::memory_order_relaxed);
    door_.store(kOpen); // no worker is inside: the last join saw 0
    gen_.fetch_add(1);
    // Wake waiting workers, at most one per partition a worker owns:
    // a window with one such partition on an 8-thread engine wakes
    // one worker, not seven. Which worker wakes does not matter;
    // workers steal what their owners leave. In libstdc++ a notify
    // with no waiter makes no system call.
    for (int i = std::min(foreign, pool); i > 0; --i)
        gen_.notify_one();
    claimLoop(0); // the coordinator is thread 0
    // Every active partition has run or is held by a worker inside
    // the door. Close it and wait for those workers to leave; only
    // then may active_, owner_ and claimed_ be touched again.
    if (door_.fetch_and(~kOpen) != kOpen &&
        !spinUntil([&] { return door_.load() == 0; }))
        for (std::uint32_t door; (door = door_.load()) != 0;)
            door_.wait(door);
}

template <typename Done>
bool
PartEngine::runWindows(const Done &done, Tick limit)
{
    bool met;
    for (;;) {
        drainPosts();
        if ((met = done()))
            break;
        const Tick w = nextEventTime();
        if (w == maxTick || w > limit)
            break;
        now_ = w;
        const Tick end =
            (w > maxTick - lookahead_) ? maxTick : w + lookahead_;
        const Tick wend =
            limit == maxTick ? end : std::min(end, limit + 1);
        runWindowAll(wend);
        if (barrierHook_)
            barrierHook_(w, wend);
    }
    // Only host code between runs reads a partition's clock outside
    // its own events. Fast-forward the partitions that sat out the
    // last windows to the committed time, so host work on one (a new
    // task submission, say) never anchors events, or the NoC traffic
    // they inject, in another partition's past. The committed time is
    // a window base, the minimum pending-event time when that window
    // began, so no queue holds an event before it.
    for (auto &q : queues_)
        q->now_ = std::max(q->now_, now_);
    return met;
}

Tick
PartEngine::run(Tick limit)
{
    runWindows([] { return false; }, limit);
    return now_;
}

bool
PartEngine::runUntil(const std::function<bool()> &done, Tick limit)
{
    return runWindows(done, limit);
}

} // namespace ccsvm::sim
