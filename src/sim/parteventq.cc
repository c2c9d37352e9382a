/**
 * @file
 * PartEngine implementation: window loop, mailbox barriers, and the
 * persistent worker pool.
 */

#include "sim/parteventq.hh"

#include <algorithm>
#include <stdexcept>

namespace ccsvm::sim
{

namespace detail
{
constinit thread_local EventQueue *tlsActiveQueue = nullptr;
} // namespace detail

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
    for (int p = 0; p < partitions; ++p) {
        queues_.push_back(std::make_unique<EventQueue>());
        queues_.back()->engine_ = this;
        queues_.back()->part_ = p;
        out_[p].to.resize(partitions);
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
    {
        std::lock_guard<std::mutex> lk(mu_);
        stop_ = true;
    }
    cv_.notify_all();
    for (auto &w : workers_)
        w.join();
    workers_.clear();
    stop_ = false;
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
        if (!o.touched.empty())
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
    Outbox &o = out_[src->part_];
    std::vector<CrossEvent> &mb = o.to[target.part_];
    if (mb.empty())
        o.touched.push_back(target.part_);
    mb.push_back(CrossEvent{when, priority, std::move(cb)});
}

void
PartEngine::drainMailboxes()
{
    // clear() keeps each vector's capacity, so the steady state
    // allocates nothing.
    for (std::size_t s = 0; s < out_.size(); ++s) {
        Outbox &o = out_[s];
        for (const int d : o.touched) {
            EventQueue &q = *queues_[d];
            for (CrossEvent &ev : o.to[d]) {
                ccsvm_assert(ev.when >= q.now(),
                             "post from partition %zu in partition "
                             "%d's past: when=%llu dest-now=%llu "
                             "prio=%d",
                             s, d, (unsigned long long)ev.when,
                             (unsigned long long)q.now(), ev.priority);
                q.schedule(ev.when, std::move(ev.cb), ev.priority);
            }
            o.to[d].clear();
        }
        o.touched.clear();
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
PartEngine::advanceTo(Tick w)
{
    // Fast-forward idle partitions to the window base. Without this a
    // partition that sat out several windows keeps a stale local
    // clock, and host-side calls between runs (a new task submission,
    // say) would anchor fresh events to that stale clock — placing
    // them, and any NoC traffic they inject, in other partitions'
    // pasts. The base is the global minimum pending-event time, so no
    // queue holds an event before it and the fast-forward never
    // reorders anything.
    for (auto &q : queues_)
        q->now_ = std::max(q->now_, w);
}

void
PartEngine::claimLoop()
{
    const int n = static_cast<int>(active_.size());
    for (;;) {
        const int i = next_.fetch_add(1, std::memory_order_relaxed);
        if (i >= n)
            return;
        EventQueue *q = queues_[active_[i]].get();
        detail::tlsActiveQueue = q;
        q->runWindow(windowEnd_);
        detail::tlsActiveQueue = nullptr;
        pending_.fetch_sub(1, std::memory_order_acq_rel);
    }
}

void
PartEngine::workerLoop()
{
    std::uint64_t seen = 0;
    std::unique_lock<std::mutex> lk(mu_);
    for (;;) {
        cv_.wait(lk, [&] { return stop_ || gen_ != seen; });
        if (stop_)
            return;
        seen = gen_;
        // A worker that slept through a whole window (its wake was
        // absorbed, or it was slow to run) finds the door already
        // closed: it must not claim, because the coordinator has
        // moved on and may be rebuilding active_ for a later window.
        if (!open_)
            continue;
        ++inWindow_;
        lk.unlock();
        claimLoop();
        lk.lock();
        --inWindow_;
        if (inWindow_ == 0 &&
            pending_.load(std::memory_order_acquire) == 0)
            doneCv_.notify_all();
    }
}

void
PartEngine::runWindowAll(Tick end)
{
    ++windows_;
    // Only partitions holding an event inside [*, end) do any work
    // this window; the rest were already fast-forwarded by
    // advanceTo. The active set is fixed for the whole window:
    // in-window schedules stay partition-local and cross-partition
    // sends sit in mailboxes until the next barrier.
    active_.clear();
    for (int p = 0; p < partitions(); ++p)
        if (queues_[p]->peekWhen() < end)
            active_.push_back(p);
    const int pool = poolSize();
    if (pool == 0 || active_.size() <= 1) {
        // Nothing to overlap: run inline on the calling thread with
        // no worker hand-off. Identical partition/window schedule to
        // the threaded path (partition order within a window is
        // unobservable — the queues are independent until the next
        // barrier).
        for (const int p : active_) {
            detail::tlsActiveQueue = queues_[p].get();
            queues_[p]->runWindow(end);
        }
        detail::tlsActiveQueue = nullptr;
        return;
    }
    if (workers_.empty()) {
        workers_.reserve(pool);
        for (int i = 0; i < pool; ++i)
            workers_.emplace_back([this] { workerLoop(); });
    }
    {
        std::lock_guard<std::mutex> lk(mu_);
        windowEnd_ = end;
        next_.store(0, std::memory_order_relaxed);
        pending_.store(static_cast<int>(active_.size()),
                       std::memory_order_relaxed);
        ++gen_;
        open_ = true;
    }
    // Wake only as many workers as there are partitions beyond the
    // coordinator's own: a window with 2 active partitions on an
    // 8-thread engine costs one wakeup, not seven. A missed wake is
    // harmless — claiming is dynamic and the coordinator always
    // participates.
    const int wake =
        std::min(pool, static_cast<int>(active_.size()) - 1);
    for (int i = 0; i < wake; ++i)
        cv_.notify_one();
    claimLoop(); // the coordinator is worker 0
    // Wait for every claimed partition to finish AND every entered
    // worker to leave, then close the door. Only after that may
    // active_/next_/pending_ be touched again (by the next publish
    // or by the inline path), so a late-waking worker can never
    // claim against a stale or half-built window.
    std::unique_lock<std::mutex> lk(mu_);
    doneCv_.wait(lk, [&] {
        return inWindow_ == 0 &&
               pending_.load(std::memory_order_acquire) == 0;
    });
    open_ = false;
}

template <typename Done>
bool
PartEngine::runWindows(const Done &done, Tick limit)
{
    for (;;) {
        drainMailboxes();
        if (done())
            return true;
        const Tick w = nextEventTime();
        if (w == maxTick || w > limit)
            return false;
        now_ = w;
        advanceTo(w);
        const Tick end =
            (w > maxTick - lookahead_) ? maxTick : w + lookahead_;
        const Tick wend =
            limit == maxTick ? end : std::min(end, limit + 1);
        runWindowAll(wend);
        if (barrierHook_)
            barrierHook_(w, wend);
    }
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
