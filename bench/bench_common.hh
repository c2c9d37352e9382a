/**
 * @file
 * Shared infrastructure for the per-figure benchmark binaries.
 *
 * Each binary's main() lists one BenchPoint per (system, size) point
 * and returns runBench(): every point runs one full simulation, then
 * records its figure rows, and the binary prints the paper-style
 * series (e.g. "runtime relative to the AMD CPU core") so the figure
 * can be read directly off the output.
 *
 * Environment knobs:
 *   CCSVM_BENCH_LARGE=1  extend sweeps toward the paper's sizes
 *                        (longer host runtime).
 *   CCSVM_JOBS=N         cap the simulation workers (1 = sequential,
 *                        unset = hardware concurrency).
 *   CCSVM_BENCH_JSON=P   also write the figure as JSON to P (used by
 *                        bench/run_figures.sh).
 */

#ifndef CCSVM_BENCH_BENCH_COMMON_HH
#define CCSVM_BENCH_BENCH_COMMON_HH

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "base/logging.hh"
#include "sim/stats.hh"
#include "sim/sweep.hh"
#include "workloads/workloads.hh"

namespace ccsvm::bench
{

inline bool
largeSweeps()
{
    const char *env = std::getenv("CCSVM_BENCH_LARGE");
    return env && env[0] == '1';
}

/**
 * What one point's simulation produced: the workload's RunResult (or
 * at least run.ticks and run.correct for hand-rolled experiments)
 * plus any machine stats the bench reads after the run, extracted
 * before the machine dies.
 */
struct SweepOutcome
{
    workloads::RunResult run;
    std::map<std::string, double> values;
};

/** Collected series for the post-run figure table. */
class FigureTable
{
  public:
    void
    record(std::uint64_t x, const std::string &series, double value)
    {
        data_[x][series] = value;
        seriesNames_.insert({series, seriesNames_.size()});
    }

    /** Print rows: x followed by each series column. */
    void
    print(const char *title, const char *x_label) const
    {
        std::vector<std::string> cols(seriesNames_.size());
        for (const auto &[name, idx] : seriesNames_)
            cols[idx] = name;

        std::printf("\n=== %s ===\n", title);
        std::printf("%-10s", x_label);
        for (const auto &c : cols)
            std::printf(" %16s", c.c_str());
        std::printf("\n");
        for (const auto &[x, row] : data_) {
            std::printf("%-10llu", (unsigned long long)x);
            for (const auto &c : cols) {
                auto it = row.find(c);
                if (it == row.end())
                    std::printf(" %16s", "-");
                else
                    std::printf(" %16.4g", it->second);
            }
            std::printf("\n");
        }
        std::printf("\n");
    }

    /**
     * Write the figure as JSON: title, x label, the binary's total
     * simulated ticks, series names, and one row object per x value.
     * Shares the number/escape helpers with the stats registry so
     * `BENCH_*.json` files and the ccsvm driver's output form one
     * schema family.
     */
    bool
    writeJson(const std::string &path, const char *title,
              const char *x_label, std::uint64_t total_sim_ticks) const
    {
        std::ofstream os(path);
        if (!os)
            return false;
        os << "{\n  \"title\": \"" << sim::jsonEscape(title)
           << "\",\n  \"x_label\": \"" << sim::jsonEscape(x_label)
           << "\",\n  \"total_sim_ticks\": " << total_sim_ticks
           << ",\n  \"series\": [";
        std::vector<std::string> cols(seriesNames_.size());
        for (const auto &[name, idx] : seriesNames_)
            cols[idx] = name;
        for (std::size_t i = 0; i < cols.size(); ++i)
            os << (i ? ", " : "") << '"' << sim::jsonEscape(cols[i])
               << '"';
        os << "],\n  \"rows\": [";
        bool first_row = true;
        for (const auto &[x, row] : data_) {
            os << (first_row ? "\n" : ",\n") << "    {\"x\": " << x;
            for (const auto &[name, value] : row)
                os << ", \"" << sim::jsonEscape(name)
                   << "\": " << sim::jsonNumber(value);
            os << "}";
            first_row = false;
        }
        os << (first_row ? "" : "\n  ") << "]\n}\n";
        return bool(os.flush());
    }

  private:
    std::map<std::uint64_t, std::map<std::string, double>> data_;
    std::map<std::string, std::size_t> seriesNames_;
};

/** One point of a figure. */
struct BenchPoint
{
    /** Names the point when it fails validation. */
    std::string name;
    /** One full simulation on a machine the job owns; runs on a
     * sim::SweepRunner worker. */
    std::function<SweepOutcome()> run;
    /** Writes the point's figure rows; runs on the main thread in
     * list order, so a point may read what earlier points recorded
     * (e.g. a CPU baseline). */
    std::function<void(const SweepOutcome &, FigureTable &)> record;
};

/**
 * A figure binary's whole main(): run every point's simulation
 * through one sim::SweepRunner, record the outcomes in list order,
 * print the table and honor CCSVM_BENCH_JSON. Recording stays on this
 * thread, so stdout and BENCH_*.json are byte-identical for every
 * worker count.
 *
 * @param hostTimed run the points one after another on this thread,
 *        whatever CCSVM_JOBS says: for figures that measure
 *        host wall-clock, which concurrent points would distort.
 * @return the exit code: 1 if any point failed validation (each one
 *         named on stderr) or the JSON could not be written, else 0.
 */
inline int
runBench(const char *title, const char *x_label,
         std::vector<BenchPoint> points, bool hostTimed = false)
{
    // Built before quieting, so a bad CCSVM_JOBS still warns.
    sim::SweepRunner sweep(hostTimed ? 1 : 0);
    setQuiet(true);
    std::vector<std::function<SweepOutcome()>> runs;
    for (BenchPoint &p : points)
        runs.push_back(std::move(p.run));
    const std::vector<SweepOutcome> outcomes =
        sweep.map<SweepOutcome>(runs);

    FigureTable table;
    std::uint64_t total_sim_ticks = 0;
    int rc = 0;
    for (std::size_t i = 0; i < points.size(); ++i) {
        points[i].record(outcomes[i], table);
        total_sim_ticks += outcomes[i].run.ticks;
        if (!outcomes[i].run.correct) {
            std::fprintf(stderr, "%s: failed validation\n",
                         points[i].name.c_str());
            rc = 1;
        }
    }
    table.print(title, x_label);

    if (const char *path = std::getenv("CCSVM_BENCH_JSON");
        path && path[0]) {
        if (table.writeJson(path, title, x_label, total_sim_ticks)) {
            std::printf("figure JSON written to %s\n", path);
        } else {
            std::fprintf(stderr, "cannot write %s\n", path);
            rc = 1;
        }
    }
    return rc;
}

inline double
toMs(Tick t)
{
    return static_cast<double>(t) / static_cast<double>(tickMs);
}

} // namespace ccsvm::bench

#endif // CCSVM_BENCH_BENCH_COMMON_HH
