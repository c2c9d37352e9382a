/**
 * @file
 * The parallel sweep engine: run N independent simulations
 * concurrently in one process.
 *
 * The paper's evaluation — and every ablation this repo grew on top
 * of it — is a grid of design points (protocol x pattern x core
 * count x ...), and the points share nothing: each one builds its own
 * CcsvmMachine, runs it to completion, and reads its own stats
 * registry. Whatever a machine does inside (see PartEngine), the
 * SweepRunner exploits the *between*-machine parallelism by executing
 * each point on a worker-pool thread.
 *
 * Determinism is the contract: results are indexed by point order,
 * not completion order, and a task must be self-contained (no state
 * shared with other points), so a sweep at `--jobs N` is
 * byte-identical to the same sweep at `--jobs 1` — which in turn is
 * the exact sequential loop the consumers ran before this engine
 * existed. cmake/CheckParallelSweep.cmake holds that bar in CI.
 */

#ifndef CCSVM_SIM_SWEEP_HH
#define CCSVM_SIM_SWEEP_HH

#include <cstddef>
#include <functional>
#include <vector>

namespace ccsvm::sim
{

/**
 * std::thread::hardware_concurrency() clamped to at least 1: the
 * standard allows it to return 0 when the count cannot be determined,
 * and a zero worker count would mean no workers at all. Shared by
 * every "0 = auto" knob (sweep --jobs, machine --sim-threads).
 */
unsigned hardwareJobs();

/**
 * Default sweep worker count: the CCSVM_JOBS environment variable if
 * set (1 = sequential), else hardwareJobs().
 */
unsigned defaultSweepJobs();

/**
 * Executes independent tasks across a worker pool.
 *
 * Workers claim point indices in order from a shared counter, so an
 * expensive first point does not serialize the rest; results land in
 * the slot of the point that produced them, so consumers see
 * deterministic point order no matter which worker finished first.
 */
class SweepRunner
{
  public:
    /** @param jobs worker count; 0 = defaultSweepJobs(), 1 = run
     * every task on the calling thread in index order (exactly the
     * historical sequential loop). */
    explicit SweepRunner(unsigned jobs = 0);

    unsigned jobs() const { return jobs_; }

    /**
     * Run fn(0) .. fn(n-1), each exactly once. With jobs() == 1 (or
     * n <= 1) the calls happen on the calling thread in index order;
     * otherwise min(jobs, n) pool threads claim indices in order.
     * The first exception a task throws is rethrown on the calling
     * thread after every worker has drained.
     */
    void forEachIndex(std::size_t n,
                      const std::function<void(std::size_t)> &fn) const;

    /**
     * Run every task and return the results in task order. R must be
     * default-constructible and movable.
     */
    template <typename R>
    std::vector<R>
    map(const std::vector<std::function<R()>> &tasks) const
    {
        std::vector<R> out(tasks.size());
        forEachIndex(tasks.size(),
                     [&](std::size_t i) { out[i] = tasks[i](); });
        return out;
    }

  private:
    unsigned jobs_;
};

} // namespace ccsvm::sim

#endif // CCSVM_SIM_SWEEP_HH
