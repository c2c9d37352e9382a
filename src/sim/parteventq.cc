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
    if (partitions < 1 || partitions > kMaxPartitions)
        throw std::invalid_argument(
            "PartEngine: partition count out of range");
    queues_.reserve(partitions);
    mail_.reserve(partitions);
    for (int p = 0; p < partitions; ++p) {
        queues_.push_back(std::make_unique<EventQueue>());
        queues_.back()->engine_ = this;
        queues_.back()->part_ = p;
        mail_.push_back(std::make_unique<Mailbox>());
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
    if (static_cast<int>(workers_.size()) + 1 != threads_)
        stopWorkers();
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
    for (const auto &m : mail_)
        if (!m->items.empty())
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
    // srcSeq is read-modify-written only by the host thread running
    // the source partition's window; the mailbox mutex covers the
    // shared vector.
    Mailbox &mb = *mail_[target.part_];
    std::lock_guard<std::mutex> lk(mb.mu);
    mb.items.push_back(CrossEvent{when, priority, src->part_,
                                  src->crossSeq_++, std::move(cb)});
}

void
PartEngine::drainMailboxes()
{
    for (std::size_t p = 0; p < mail_.size(); ++p) {
        Mailbox &mb = *mail_[p];
        // Runs at a barrier: no worker is inside a window, so the
        // lock is uncontended (still taken for TSan's benefit).
        std::lock_guard<std::mutex> lk(mb.mu);
        if (mb.items.empty())
            continue;
        std::sort(mb.items.begin(), mb.items.end(),
                  [](const CrossEvent &a, const CrossEvent &b) {
                      if (a.when != b.when)
                          return a.when < b.when;
                      if (a.priority != b.priority)
                          return a.priority < b.priority;
                      if (a.srcPart != b.srcPart)
                          return a.srcPart < b.srcPart;
                      return a.srcSeq < b.srcSeq;
                  });
        for (auto &ev : mb.items) {
            ccsvm_assert(ev.when >= queues_[p]->now(),
                         "mailbox event in partition %zu's past: "
                         "when=%llu dest-now=%llu srcPart=%d "
                         "srcSeq=%llu prio=%d",
                         p, (unsigned long long)ev.when,
                         (unsigned long long)queues_[p]->now(),
                         ev.srcPart,
                         (unsigned long long)ev.srcSeq, ev.priority);
            queues_[p]->schedule(ev.when, std::move(ev.cb),
                                 ev.priority);
        }
        mb.items.clear();
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
    if (threads_ == 1 || active_.size() <= 1) {
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
        workers_.reserve(threads_ - 1);
        for (int i = 0; i < threads_ - 1; ++i)
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
    const int wake = std::min(threads_ - 1,
                              static_cast<int>(active_.size()) - 1);
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

Tick
PartEngine::run(Tick limit)
{
    for (;;) {
        drainMailboxes();
        const Tick w = nextEventTime();
        if (w == maxTick || w > limit)
            return now_;
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

bool
PartEngine::runUntil(const std::function<bool()> &done, Tick limit)
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

} // namespace ccsvm::sim
