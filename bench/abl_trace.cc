/**
 * @file
 * Ablation A9: what does observability cost?
 *
 * The tracing layer claims to be zero-overhead when disabled (every
 * record site is one load + mask test) and cheap when enabled (a
 * ring-buffer store per event, flushed at window barriers). This
 * bench puts numbers on both claims with the same matmul run at
 * three settings:
 *
 *   row 0 — tracing off (the default every other figure runs at)
 *   row 1 — --trace-categories coh (the busiest single category)
 *   row 2 — --trace-categories all + --sample-interval
 *
 * reporting wall ms, recorded events, and the percent overhead over
 * row 0. A hash of the full stats text is carried per row and
 * asserted equal across rows: tracing must observe the simulation,
 * never perturb it.
 *
 * Host-time measurement, so the points run one after another like
 * abl_engine's; numbers from a parallel ctest run are indicative
 * only.
 */

#include "bench_common.hh"

#include <chrono>
#include <sstream>

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

/** FNV-1a over the stats JSON: a cheap, order-sensitive fingerprint
 * of every counter/distribution/histogram value. */
std::uint64_t
statsHash(system::CcsvmMachine &m)
{
    std::ostringstream ss;
    m.stats().dumpJson(ss);
    const std::string text = ss.str();
    std::uint64_t h = 1469598103934665603ull;
    for (const char c : text) {
        h ^= static_cast<unsigned char>(c);
        h *= 1099511628211ull;
    }
    return h;
}

/** One matmul run with the given trace settings; wall time measured
 * around the run only (machine build and JSON export excluded). */
SweepOutcome
tracedMatmul(const char *cats, Tick sample_interval, unsigned n)
{
    system::CcsvmConfig cfg;
    cfg.traceCategories = cats;
    cfg.sampleInterval = sample_interval;
    system::CcsvmMachine m(cfg);
    const auto t0 = Clock::now();
    SweepOutcome o;
    o.run = workloads::matmulXthreads(m, n);
    o.values["wall_ms"] = msSince(t0);
    o.values["recorded"] =
        static_cast<double>(m.stats().tracer().recorded());
    o.values["dropped"] =
        static_cast<double>(m.stats().tracer().dropped());
    o.values["stats_hash"] = static_cast<double>(statsHash(m));
    return o;
}

} // namespace
} // namespace ccsvm::bench

int
main()
{
    using namespace ccsvm;
    using namespace ccsvm::bench;

    const unsigned n = largeSweeps() ? 96 : 48;
    struct Setting
    {
        const char *label;
        const char *cats;
        Tick sampleInterval;
    };
    const Setting settings[] = {
        {"off", "", 0},
        {"coh", "coh", 0},
        {"all+sampling", "all", 500000},
    };
    // Row 0 (tracing off) is every row's baseline.
    double base_wall = 0, base_hash = 0;
    std::vector<BenchPoint> points;
    for (std::uint64_t row = 0; row < std::size(settings); ++row) {
        const Setting s = settings[row];
        points.push_back(
            {std::string("abl_trace/overhead/") + s.label,
             [s, n] { return tracedMatmul(s.cats, s.sampleInterval, n); },
             [row, &base_wall, &base_hash](const SweepOutcome &o,
                                           FigureTable &t) {
                 const double wall = o.values.at("wall_ms");
                 if (row == 0) {
                     base_wall = wall;
                     base_hash = o.values.at("stats_hash");
                 }
                 // Tracing must not change a single simulated number.
                 // The hash is carried as a double, exact for the
                 // comparison's purposes: both rows round identically
                 // or the mismatch is real.
                 ccsvm_assert(o.values.at("stats_hash") == base_hash,
                              "tracing perturbed the simulated stats");
                 t.record(row, "wall_ms", wall);
                 t.record(row, "recorded", o.values.at("recorded"));
                 t.record(row, "dropped", o.values.at("dropped"));
                 t.record(row, "overhead_pct",
                          base_wall > 0
                              ? (wall / base_wall - 1.0) * 100.0
                              : 0.0);
             }});
    }
    return runBench("Ablation A9: observability overhead (row 0 = off, "
                    "1 = coh, 2 = all + sampling)",
                    "setting", std::move(points), true);
}
