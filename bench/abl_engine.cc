/**
 * @file
 * Ablation A8: the partitioned event engine as a host-performance
 * experiment.
 *
 * Two questions, both about the simulator itself rather than the
 * simulated machine:
 *
 *  1. How does one simulation's host wall-clock scale with
 *     --sim-threads? A matmul run (CPU cluster + MTTOP cluster +
 *     directory banks all active) is repeated at 1/2/4 engine
 *     threads; simulated results are identical by construction, so
 *     wall ms, events/s, and the events-per-window grain are the
 *     whole story. Speedup needs real cores and windows whose work
 *     is spread over several partitions: a window whose active
 *     partitions all belong to the calling thread (the busiest
 *     ones, by the engine's load-based owner map) runs inline, and
 *     any other pays a hand-off to the workers, which this bench
 *     then quantifies.
 *
 *  2. What does the raw (unpartitioned) EventQueue sustain on
 *     schedule+run churn? The measured second burst re-schedules into
 *     a heap whose high-water reserve the first burst already grew,
 *     so it shows the hot path without the reserve's allocations.
 *
 * Unlike the figure benches this binary measures host time, so its
 * points run one after another (runBench's hostTimed). Numbers from a
 * parallel ctest run (which runs other tests concurrently) are
 * indicative only; run the binary alone for clean ones.
 */

#include "bench_common.hh"

#include <chrono>

#include "sim/parteventq.hh"
#include "system/ccsvm_machine.hh"

namespace ccsvm::bench
{
namespace
{

using Clock = std::chrono::steady_clock;

double
msSince(Clock::time_point t0)
{
    return std::chrono::duration<double, std::milli>(Clock::now() -
                                                     t0)
        .count();
}

/** One full matmul simulation on an engine with @p threads workers;
 * wall time measured around the run only (machine build excluded). */
SweepOutcome
engineMatmul(int threads, unsigned n)
{
    system::CcsvmConfig cfg;
    cfg.simThreads = threads;
    system::CcsvmMachine m(cfg);
    const auto t0 = Clock::now();
    SweepOutcome o;
    o.run = workloads::matmulXthreads(m, n);
    const double wall_ms = msSince(t0);
    const auto events =
        static_cast<double>(m.engine().eventsExecuted());
    const auto windows = static_cast<double>(m.engine().windows());
    o.values["wall_ms"] = wall_ms;
    o.values["Mev_per_s"] = events / wall_ms / 1e3;
    o.values["ev_per_window"] = windows ? events / windows : 0.0;
    return o;
}

/** Raw EventQueue schedule+run churn: @p burst events per burst. The
 * queue outlives both bursts, so burst 2 — the measured one —
 * schedules into the high-water reserve that burst 1 grew. */
SweepOutcome
queueChurn(std::size_t burst)
{
    sim::EventQueue eq;
    std::uint64_t sink = 0;
    double burst_ms[2] = {0, 0};
    for (int b = 0; b < 2; ++b) {
        const Tick base = eq.now();
        const auto t0 = Clock::now();
        for (std::size_t i = 0; i < burst; ++i)
            eq.schedule(base + 1 + static_cast<Tick>(i % 97),
                        [&sink] { ++sink; });
        eq.run();
        burst_ms[b] = msSince(t0);
    }
    ccsvm_assert(sink == 2 * burst, "queue churn lost events");
    SweepOutcome o;
    o.run.ticks = eq.now();
    o.run.correct = true;
    o.values["warm_Mev_per_s"] =
        static_cast<double>(burst) / burst_ms[1] / 1e3;
    return o;
}

} // namespace
} // namespace ccsvm::bench

int
main()
{
    using namespace ccsvm::bench;

    const unsigned n = largeSweeps() ? 96 : 48;
    double base_wall = 0; // the 1-thread run, every row's baseline
    std::vector<BenchPoint> points;
    for (const int threads : {1, 2, 4}) {
        points.push_back(
            {"abl_engine/threads/" + std::to_string(threads),
             [threads, n] { return engineMatmul(threads, n); },
             [threads, &base_wall](const SweepOutcome &o,
                                   FigureTable &t) {
                 const double wall = o.values.at("wall_ms");
                 if (threads == 1)
                     base_wall = wall;
                 const auto x = static_cast<std::uint64_t>(threads);
                 t.record(x, "wall_ms", wall);
                 t.record(x, "Mev_per_s", o.values.at("Mev_per_s"));
                 t.record(x, "ev_per_window",
                          o.values.at("ev_per_window"));
                 t.record(x, "speedup_vs_1t",
                          wall > 0 ? base_wall / wall : 0.0);
             }});
    }
    const std::size_t burst = largeSweeps() ? 4u << 20 : 1u << 20;
    points.push_back(
        {"abl_engine/queue_churn",
         [burst] { return queueChurn(burst); },
         [](const SweepOutcome &o, FigureTable &t) {
             // Row 0: the unpartitioned queue baseline (no engine
             // threads).
             t.record(0, "Mev_per_s", o.values.at("warm_Mev_per_s"));
         }});
    return runBench("Ablation A8: engine scaling (x=sim threads; row 0 = "
                    "raw unpartitioned queue)",
                    "threads", std::move(points), true);
}
