/**
 * @file
 * ccsvm-bench: the benchmark harness behind benchmark/run.py.
 *
 *   ccsvm-bench rep --workload NAME --seed N [--smoke] [--trace FILE]
 *                   [--run-id ID]
 *   ccsvm-bench micro [--seconds S] [--trace FILE] [--run-id ID]
 *   ccsvm-bench info
 *
 * `rep` simulates one workload once on a freshly built, cold machine
 * and prints one JSON object: host times, the simulated results, the
 * per-layer metrics read from the machine's StatRegistry and engine,
 * an FNV-1a fingerprint of the full stats dump, the host seconds of
 * each segment of the run between progress marks, and the time of a
 * host-speed calibration kernel run before and after. `micro` times the
 * layer microbenches. The harness measures the simulator from the
 * outside only: it times calls to public functions, marks progress
 * through the engine's public barrier hook and reads statistics after
 * the run, so it needs no record site in src/.
 *
 * Every metric is looked up by exact counter name; a renamed or
 * missing counter is an error, not a silent zero.
 */

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iostream>
#include <limits>
#include <memory>
#include <queue>
#include <sstream>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "base/random.hh"
#include "cache/cache_array.hh"
#include "sim/eventq.hh"
#include "sim/histogram.hh"
#include "sim/parteventq.hh"
#include "sim/stats.hh"
#include "spans.hh"
#include "system/ccsvm_machine.hh"
#include "vm/tlb.hh"
#include "workloads/registry.hh"

namespace
{

using namespace ccsvm;
using bench::Clock;
using bench::SpanRecorder;

/** Machine constructions timed per rep, after one discarded warm-up. */
constexpr int kSetupBuilds = 21;

/**
 * A progress mark falls at the first checked window barrier after each
 * multiple of kMarkEvents executed events; barriers are checked every
 * kMarkWindows windows. Both counts repeat exactly from rep to rep, so
 * the k-th segment of every rep covers the same simulated work. 64 k
 * events take 10 to 20 ms of host time on the four workloads.
 */
constexpr std::uint64_t kMarkEvents = 1 << 16;
constexpr std::uint64_t kMarkWindows = 16;

/** Calibration kernel passes before the machines are built and again
 * after the run; the fastest of all is reported. */
constexpr int kCalibrationPasses = 5;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/**
 * One benchmark workload: a registry entry, its driver-equivalent
 * parameters and the engine thread count. Why each one is in the
 * benchmark is recorded in BENCHMARK.json and benchmark/README.md.
 */
struct BenchWorkload
{
    const char *name;
    const char *entry;
    int simThreads;
    void (*params)(workloads::WorkloadParams &p, std::uint64_t seed,
                   bool smoke);
};

const BenchWorkload kWorkloads[] = {
    {"matmul", "matmul", 1,
     [](workloads::WorkloadParams &p, std::uint64_t seed, bool smoke) {
         p.n = smoke ? 32 : 128;
         p.matmulSeed = seed;
     }},
    {"migratory", "synth:migratory", 1,
     [](workloads::WorkloadParams &p, std::uint64_t, bool smoke) {
         p.synth.iters = smoke ? 256 : 8192;
     }},
    {"ptrchase", "synth:ptrchase", 1,
     [](workloads::WorkloadParams &p, std::uint64_t seed, bool smoke) {
         p.synth.footprintBytes = Addr(smoke ? 64 : 1024) * 1024;
         p.synth.iters = smoke ? 4 : 32;
         p.synth.seed = seed;
     }},
    {"barneshut_t2", "barneshut", 2,
     [](workloads::WorkloadParams &p, std::uint64_t seed, bool smoke) {
         p.bh.bodies = smoke ? 64 : 512;
         p.bh.steps = smoke ? 1 : 2;
         p.bh.seed = seed;
     }},
};

/** Ordered name -> value list, printed as one JSON object. */
using Metrics = std::vector<std::pair<std::string, double>>;

void
printMetrics(std::ostream &os, const Metrics &m)
{
    os << "{";
    for (std::size_t i = 0; i < m.size(); ++i)
        os << (i ? ", " : "") << '"' << m[i].first
           << "\": " << sim::jsonNumber(m[i].second);
    os << "}";
}

double
peakRssMb()
{
    struct rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

std::uint64_t
fnv1a(const std::string &s)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const unsigned char c : s) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

double
ratio(double num, double den)
{
    return den != 0 ? num / den : 0.0;
}

/** Exact-name reads from a finished machine's statistics. */
class StatReader
{
  public:
    StatReader(system::CcsvmMachine &m, const std::string &dump)
        : m_(m), dump_(dump)
    {}

    double
    counter(const std::string &name) const
    {
        if (!m_.stats().hasCounter(name))
            throw std::runtime_error("no counter named " + name);
        return static_cast<double>(m_.stats().get(name));
    }

    /** Sum of "<family>0<suffix>" .. "<family>{n-1}<suffix>". */
    double
    sum(const char *family, int n, const std::string &suffix) const
    {
        double t = 0;
        for (int i = 0; i < n; ++i)
            t += counter(family + std::to_string(i) + suffix);
        return t;
    }

    double
    cpus(const std::string &suffix) const
    {
        return sum("cpu", m_.numCpuCores(), suffix);
    }

    double
    mttops(const std::string &suffix) const
    {
        return sum("mttop", m_.numMttopCores(), suffix);
    }

    double
    banks(const std::string &suffix) const
    {
        return sum("dir", m_.config().numL2Banks, suffix);
    }

    double
    maxBank(const std::string &suffix) const
    {
        double v = 0;
        for (int b = 0; b < m_.config().numL2Banks; ++b)
            v = std::max(v, counter("dir" + std::to_string(b) + suffix));
        return v;
    }

    /** A histogram the run recorded. StatRegistry::histogram creates
     * unknown names, so existence is checked against the dump. */
    const sim::LatencyHistogram &
    histogram(const std::string &name) const
    {
        requireInDump(name);
        return m_.stats().histogram(name);
    }

    const sim::Distribution &
    distribution(const std::string &name) const
    {
        requireInDump(name);
        return m_.stats().distribution(name);
    }

  private:
    void
    requireInDump(const std::string &name) const
    {
        if (dump_.find('"' + name + "\": {") == std::string::npos)
            throw std::runtime_error("no statistic named " + name);
    }

    system::CcsvmMachine &m_;
    const std::string &dump_;
};

/** Per-layer metrics of one finished run (see README "Per-layer"). */
Metrics
layerMetrics(system::CcsvmMachine &m, const std::string &dump,
             double run_s)
{
    const StatReader s(m, dump);
    const double ps_per_ns = static_cast<double>(tickNs);
    Metrics out;
    auto put = [&out](std::string name, double v) {
        out.emplace_back(std::move(name), v);
    };

    const double events = static_cast<double>(m.engine().eventsExecuted());
    const double windows = static_cast<double>(m.engine().windows());
    put("sim.events", events);
    put("sim.windows", windows);
    put("sim.events_per_window", ratio(events, windows));
    put("sim.host_ns_per_event", ratio(run_s * 1e9, events));

    put("core.instructions",
        s.cpus(".instructions") + s.mttops(".instructions"));
    put("core.mem_ops", s.cpus(".memOps") + s.mttops(".memOps"));

    const double mt_tlb_miss = s.mttops(".tlb.misses");
    const double cpu_tlb_miss = s.cpus(".tlb.misses");
    put("vm.tlb.mttop.miss_rate",
        ratio(mt_tlb_miss, mt_tlb_miss + s.mttops(".tlb.hits")));
    put("vm.tlb.cpu.miss_rate",
        ratio(cpu_tlb_miss, cpu_tlb_miss + s.cpus(".tlb.hits")));
    put("vm.walks", s.cpus(".walker.walks") + s.mttops(".walker.walks"));
    const double pwc_hits =
        s.cpus(".walker.pwcHits") + s.mttops(".walker.pwcHits");
    const double pte_reads = pwc_hits + s.cpus(".walker.sharedHits") +
                             s.mttops(".walker.sharedHits") +
                             s.cpus(".walker.pwcMisses") +
                             s.mttops(".walker.pwcMisses");
    put("vm.pwc_hit_rate", ratio(pwc_hits, pte_reads));
    put("vm.page_faults", s.counter("kernel.pageFaults"));

    const double cpu_hits = s.cpus(".l1.hits");
    const double mt_hits = s.mttops(".l1.hits");
    put("coherence.l1.cpu.hit_rate",
        ratio(cpu_hits, cpu_hits + s.cpus(".l1.misses")));
    put("coherence.l1.mttop.hit_rate",
        ratio(mt_hits, mt_hits + s.mttops(".l1.misses")));
    for (const char *k : {"upgrades", "invs", "fwds"}) {
        const std::string suffix = std::string(".l1.") + k;
        put(std::string("coherence.l1.") + k,
            s.cpus(suffix) + s.mttops(suffix));
    }
    put("coherence.dir.invs_sent",
        s.banks(".invsSent.cpu") + s.banks(".invsSent.mttop"));
    const double requests = s.banks(".requests");
    put("coherence.dir.requests", requests);
    put("coherence.dir.stall_ratio", ratio(s.banks(".stalls"), requests));
    put("coherence.dir.recalls", s.banks(".recalls"));
    put("coherence.dir.writebacks", s.banks(".writebacks"));
    put("coherence.dir.sharing_wb", s.banks(".sharingWb"));
    put("coherence.dir.max_bank_share",
        ratio(s.maxBank(".requests"), requests));
    sim::LatencyHistogram dir_lat("dir", "");
    for (int b = 0; b < m.config().numL2Banks; ++b)
        dir_lat.merge(s.histogram("latency.dir.bank" + std::to_string(b)));
    put("coherence.dir.lat.p99_ns", dir_lat.percentile(99) / ps_per_ns);
    put("coherence.dir.lat.n", static_cast<double>(dir_lat.count()));

    const struct
    {
        const char *histogram;
        const char *metric;
        std::vector<int> percentiles;
    } lats[] = {
        {"latency.mttop.mem", "coherence.lat.mttop.mem", {50, 99}},
        {"latency.cpu.mem", "coherence.lat.cpu.mem", {99}},
        {"latency.mttop.getS", "coherence.lat.mttop.getS", {99}},
        {"latency.mttop.getM", "coherence.lat.mttop.getM", {99}},
    };
    for (const auto &l : lats) {
        const sim::LatencyHistogram &h = s.histogram(l.histogram);
        const std::string base = l.metric;
        for (const int p : l.percentiles)
            put(base + ".p" + std::to_string(p) + "_ns",
                h.percentile(p) / ps_per_ns);
        put(base + ".n", static_cast<double>(h.count()));
    }

    put("cache.l2.peak_occupancy", s.maxBank(".occupancy"));
    put("cache.l2.conflict_evictions", s.banks(".conflictEvictions"));

    const double packets = s.counter("noc.packets");
    put("noc.packets", packets);
    put("noc.bytes", s.counter("noc.bytes"));
    put("noc.hops_per_packet", ratio(s.counter("noc.hops"), packets));
    put("noc.latency_mean_ns",
        s.distribution("noc.latency").mean() / ps_per_ns);

    put("mem.dram.reads", s.counter("dram.reads"));
    put("mem.dram.writes", s.counter("dram.writes"));
    put("mem.dram.bytes", s.counter("dram.bytes"));

    put("dev.mifd.tasks", s.counter("mifd.tasks"));
    put("dev.mifd.fault_relays", s.counter("mifd.faultRelays"));
    return out;
}

/**
 * Host seconds of one pass of the host-speed calibration kernel. It is
 * shaped like an event queue, the simulator's hot loop, but uses no
 * simulator code, so no change to src/ moves it: a binary heap of
 * timed callbacks where each one fired schedules a successor and bumps
 * a hash-map counter.
 */
double
calibrationPassSeconds()
{
    constexpr int kFirings = 1 << 17;
    using Event = std::pair<std::uint64_t, std::function<void()>>;
    const auto later = [](const Event &a, const Event &b) {
        return a.first > b.first;
    };
    const auto t0 = Clock::now();
    std::priority_queue<Event, std::vector<Event>, decltype(later)> q(
        later);
    std::unordered_map<std::uint64_t, std::uint64_t> hits;
    std::uint64_t fired = 0;
    for (std::uint64_t i = 0; i < 4096; ++i)
        q.push({i, [&fired] { ++fired; }});
    for (int i = 0; i < kFirings; ++i) {
        const Event e = q.top();
        q.pop();
        e.second();
        ++hits[(e.first * 2654435761u) & 0xfffff];
        const std::uint64_t now = e.first;
        q.push({now + 1 + now * 7919 % 97,
                [&fired, now] { fired += 1 + (now & 1); }});
    }
    const double s = secondsSince(t0);
    if (fired < kFirings || hits.empty())
        throw std::runtime_error("calibration kernel lost events");
    return s;
}

/** `rep`: one cold-machine simulation of @p w. */
int
runRep(const BenchWorkload &w, std::uint64_t seed, bool smoke,
       SpanRecorder &spans)
{
    const workloads::WorkloadEntry *entry =
        workloads::WorkloadRegistry::instance().find(w.entry);
    if (!entry)
        throw std::runtime_error(std::string("no workload ") + w.entry);
    system::CcsvmConfig cfg;
    cfg.simThreads = w.simThreads;
    workloads::WorkloadParams params;
    w.params(params, seed, smoke);

    const auto root = spans.scope("workload");
    double calibration_s = std::numeric_limits<double>::infinity();
    const auto calibrate = [&] {
        const auto span = spans.scope("calibrate");
        for (int i = 0; i < kCalibrationPasses; ++i)
            calibration_s = std::min(calibration_s, calibrationPassSeconds());
    };
    calibrate();

    std::unique_ptr<system::CcsvmMachine> m;
    std::vector<double> ctor_s;
    {
        const auto span = spans.scope("setup");
        // The last machine built is the one simulated: its caches,
        // TLBs and page tables start empty.
        for (int i = 0; i <= kSetupBuilds; ++i) {
            m.reset();
            const auto t0 = Clock::now();
            m = std::make_unique<system::CcsvmMachine>(cfg);
            if (i > 0)
                ctor_s.push_back(secondsSince(t0));
        }
    }

    // Progress marks cut the run into segments of equal simulated work
    // in every rep of one workload and seed. The machine installs no
    // barrier hook of its own with tracing, sampling and capture off.
    sim::PartEngine &eng = m->engine();
    std::vector<double> marks;
    std::uint64_t next_mark = kMarkEvents;
    Clock::time_point t0;
    eng.setBarrierHook([&](Tick, Tick) {
        if (eng.windows() % kMarkWindows != 0)
            return;
        const std::uint64_t events = eng.eventsExecuted();
        if (events < next_mark)
            return;
        marks.push_back(secondsSince(t0));
        next_mark = (events / kMarkEvents + 1) * kMarkEvents;
    });

    workloads::RunResult r;
    double run_s = 0;
    {
        const auto span = spans.scope("run");
        t0 = Clock::now();
        r = entry->run(*m, params);
        run_s = secondsSince(t0);
    }
    eng.setBarrierHook(nullptr);
    calibrate();
    std::vector<double> segments;
    double last = 0;
    for (const double t : marks) {
        segments.push_back(t - last);
        last = t;
    }
    segments.push_back(run_s - last);

    Metrics layers;
    std::uint64_t fingerprint = 0;
    {
        const auto span = spans.scope("collect");
        std::ostringstream os;
        m->stats().dumpJson(os);
        const std::string dump = os.str();
        fingerprint = fnv1a(dump);
        layers = layerMetrics(*m, dump, run_s);
    }
    const double mem_ops =
        std::find_if(layers.begin(), layers.end(), [](const auto &kv) {
            return kv.first == "core.mem_ops";
        })->second;

    const Metrics e2e = {
        {"run_s", run_s},
        {"guest_mops_per_s", ratio(mem_ops, run_s) / 1e6},
        {"setup_s", median(ctor_s)},
        {"peak_rss_mb", peakRssMb()},
        {"sim_ms", static_cast<double>(r.ticks) /
                       static_cast<double>(tickMs)},
        {"dram_accesses", static_cast<double>(r.dramAccesses)},
    };

    char fp[17];
    std::snprintf(fp, sizeof fp, "%016llx",
                  static_cast<unsigned long long>(fingerprint));
    std::cout << "{\"workload\": \"" << w.name << "\", \"seed\": " << seed
              << ", \"correct\": " << (r.correct ? "true" : "false")
              << ", \"fingerprint\": \"" << fp << "\",\n \"end_to_end\": ";
    printMetrics(std::cout, e2e);
    std::cout << ",\n \"per_layer\": ";
    printMetrics(std::cout, layers);
    std::cout << ",\n \"calibration_s\": " << sim::jsonNumber(calibration_s)
              << ",\n \"segments_s\": [";
    for (std::size_t i = 0; i < segments.size(); ++i)
        std::cout << (i ? ", " : "") << sim::jsonNumber(segments[i]);
    std::cout << "]}\n";
    return r.correct ? 0 : 1;
}

// --- layer microbenches ----------------------------------------------

/**
 * Median host ns per operation of @p batch (which returns the number
 * of operations it did) over as many batches as fit in @p budget_s,
 * at least five, after one discarded warm-up batch.
 */
template <typename Batch>
double
nsPerOp(double budget_s, Batch &&batch)
{
    batch();
    std::vector<double> samples;
    const auto start = Clock::now();
    do {
        const auto t0 = Clock::now();
        const double ops = static_cast<double>(batch());
        samples.push_back(secondsSince(t0) * 1e9 / ops);
    } while (samples.size() < 5 || secondsSince(start) < budget_s);
    return median(samples);
}

void
check(bool ok, const char *what)
{
    if (!ok)
        throw std::runtime_error(std::string("microbench check failed: ") +
                                 what);
}

/** Random values in [lo, hi), fixed seed: the same input every run. */
std::vector<std::uint64_t>
randomInputs(std::size_t n, std::uint64_t lo, std::uint64_t hi)
{
    Random rng(12345);
    std::vector<std::uint64_t> v(n);
    for (auto &x : v)
        x = lo + rng.below(hi - lo);
    return v;
}

/** EventQueue schedule+run churn into a warm heap. */
double
microEventQueue(double budget)
{
    constexpr std::size_t kEvents = 1 << 16;
    sim::EventQueue eq;
    std::uint64_t fired = 0, scheduled = 0;
    const double ns = nsPerOp(budget, [&] {
        const Tick base = eq.now();
        for (std::size_t i = 0; i < kEvents; ++i)
            eq.schedule(base + 1 + static_cast<Tick>(i % 97),
                        [&fired] { ++fired; });
        eq.run();
        scheduled += kEvents;
        return kEvents;
    });
    check(fired == scheduled, "event queue lost events");
    return ns;
}

/** A token that hops to the next partition once per window. */
void
hop(sim::PartEngine &eng, int p, unsigned left)
{
    if (left == 0)
        return;
    const int q = (p + 1) % eng.partitions();
    eng.post(eng.queue(q), eng.queue(p).now() + eng.lookahead(),
             [&eng, q, left] { hop(eng, q, left - 1); });
}

/** PartEngine windows over 7 partitions (the Table 2 machine's
 * count), each posting one event per window to the next. */
double
microWindow(double budget, int threads)
{
    constexpr int kParts = 7;
    constexpr unsigned kHops = 2000;
    return nsPerOp(budget, [threads] {
        sim::PartEngine eng(kParts, 1000, threads);
        for (int p = 0; p < kParts; ++p)
            eng.queue(p).schedule(0, [&eng, p] { hop(eng, p, kHops); });
        eng.run();
        check(eng.eventsExecuted() == kParts * (kHops + 1),
              "window ring lost events");
        return eng.windows();
    });
}

double
microCounter(double budget)
{
    constexpr std::size_t kOps = 1 << 20;
    sim::Counter c("bench.counter", "");
    std::uint64_t expect = 0;
    const double ns = nsPerOp(budget, [&] {
        for (std::size_t i = 0; i < kOps; ++i)
            ++c;
        expect += kOps;
        return kOps;
    });
    check(c.value() == expect, "counter lost increments");
    return ns;
}

double
microHistogram(double budget)
{
    constexpr std::size_t kOps = 1 << 18;
    const auto lat = randomInputs(4096, 1000, 400000);
    sim::LatencyHistogram h("bench.histogram", "");
    std::uint64_t expect = 0;
    const double ns = nsPerOp(budget, [&] {
        for (std::size_t i = 0; i < kOps; ++i)
            h.record(lat[i & 4095]);
        expect += kOps;
        return kOps;
    });
    check(h.count() == expect, "histogram lost samples");
    return ns;
}

/** Tlb lookup, plus insert on a miss, over 96 pages against the 64
 * entries of Table 2: a mix of hits and LRU evictions. */
double
microTlb(double budget)
{
    constexpr std::size_t kOps = 1 << 16;
    const auto pages = randomInputs(4096, 0, 96);
    sim::StatRegistry stats;
    vm::Tlb tlb(stats, "bench.tlb");
    const double ns = nsPerOp(budget, [&] {
        vm::TlbEntry e;
        for (std::size_t i = 0; i < kOps; ++i) {
            const vm::VAddr va = pages[i & 4095] << mem::pageShift;
            if (!tlb.lookup(va, e))
                tlb.insert(va, va, true);
        }
        return kOps;
    });
    check(stats.get("bench.tlb.hits") > 0 &&
              stats.get("bench.tlb.misses") > 0,
          "TLB churn saw no hits or no misses");
    return ns;
}

/** A line shaped like an L2 line: tag, valid bit and a data block. */
struct BenchLine
{
    Addr addr = 0;
    bool valid = false;
    std::array<std::uint8_t, mem::blockBytes> data{};
};

/** CacheArray lookup/touch, or allocate with LRU victim eviction, on
 * one 1 MB 16-way bank over a 2 MB footprint. */
double
microCacheArray(double budget)
{
    constexpr std::size_t kOps = 1 << 16;
    const coherence::DirConfig bank;
    const auto blocks = randomInputs(
        1 << 16, 0, 2 * bank.bankSizeBytes / mem::blockBytes);
    cache::CacheArray<BenchLine> arr(bank.bankSizeBytes, bank.assoc);
    const std::function<bool(const BenchLine &)> any =
        [](const BenchLine &) { return true; };
    std::uint64_t hits = 0, misses = 0;
    const double ns = nsPerOp(budget, [&] {
        for (std::size_t i = 0; i < kOps; ++i) {
            const Addr a = blocks[i] << mem::blockShift;
            if (BenchLine *l = arr.lookup(a)) {
                arr.touch(l);
                ++hits;
                continue;
            }
            ++misses;
            if (!arr.allocate(a)) {
                arr.invalidate(arr.findVictim(a, any));
                arr.allocate(a);
            }
        }
        return kOps;
    });
    check(hits > 0 && misses > 0, "cache churn saw no hits or misses");
    return ns;
}

int
runMicro(double seconds, SpanRecorder &spans)
{
    const struct
    {
        const char *metric;
        std::function<double(double)> run;
    } benches[] = {
        {"sim.eventq_ns_per_event", microEventQueue},
        {"sim.window_ns.t1", [](double b) { return microWindow(b, 1); }},
        {"sim.window_ns.t2", [](double b) { return microWindow(b, 2); }},
        {"sim.counter_add_ns", microCounter},
        {"sim.histogram_record_ns", microHistogram},
        {"vm.tlb_lookup_ns", microTlb},
        {"cache.lookup_ns", microCacheArray},
    };
    const double budget = seconds / std::size(benches);
    Metrics out;
    const auto root = spans.scope("micro");
    for (const auto &b : benches) {
        const auto span = spans.scope(std::string("micro.") + b.metric);
        out.emplace_back(b.metric, b.run(budget));
    }
    std::cout << "{\"correct\": true, \"per_layer\": ";
    printMetrics(std::cout, out);
    std::cout << "}\n";
    return 0;
}

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "ccsvm-bench: %s\n"
                 "usage: ccsvm-bench rep --workload NAME --seed N "
                 "[--smoke] [--trace FILE] [--run-id ID]\n"
                 "       ccsvm-bench micro [--seconds S] [--trace FILE] "
                 "[--run-id ID]\n"
                 "       ccsvm-bench info\n",
                 why);
    std::exit(2);
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        usage("missing command");
    const std::string cmd = argv[1];
    const BenchWorkload *workload = nullptr;
    std::uint64_t seed = 1;
    bool smoke = false;
    double seconds = 2.0;
    std::string trace_path, run_id = cmd;
    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                usage((arg + " needs a value").c_str());
            return argv[++i];
        };
        if (arg == "--workload") {
            const std::string name = next();
            for (const BenchWorkload &w : kWorkloads)
                if (name == w.name)
                    workload = &w;
            if (!workload)
                usage(("unknown workload " + name).c_str());
        } else if (arg == "--seed") {
            const std::string v = next();
            char *end = nullptr;
            seed = std::strtoull(v.c_str(), &end, 10);
            if (v.empty() || *end)
                usage(("--seed needs an integer, got " + v).c_str());
        } else if (arg == "--seconds") {
            const std::string v = next();
            char *end = nullptr;
            seconds = std::strtod(v.c_str(), &end);
            if (v.empty() || *end || !(seconds > 0))
                usage(("--seconds needs a positive number, got " + v)
                          .c_str());
        } else if (arg == "--smoke") {
            smoke = true;
        } else if (arg == "--trace") {
            trace_path = next();
        } else if (arg == "--run-id") {
            run_id = next();
        } else {
            usage(("unknown option " + arg).c_str());
        }
    }

    if (cmd == "info") {
#ifdef NDEBUG
        const char *ndebug = "true";
#else
        const char *ndebug = "false";
#endif
        std::cout << "{\"compiler\": \"" CCSVM_BENCH_COMPILER
                     "\", \"build_type\": \"" CCSVM_BENCH_BUILD_TYPE
                     "\", \"ndebug\": "
                  << ndebug << "}\n";
        return 0;
    }
    if (cmd != "rep" && cmd != "micro")
        usage(("unknown command " + cmd).c_str());
    if (cmd == "rep" && !workload)
        usage("rep needs --workload");

    setQuiet(true);
    SpanRecorder spans(!trace_path.empty(), run_id);
    int rc = 0;
    try {
        rc = cmd == "rep" ? runRep(*workload, seed, smoke, spans)
                          : runMicro(seconds, spans);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "ccsvm-bench: %s\n", e.what());
        return 1;
    }
    if (!trace_path.empty()) {
        std::ofstream os(trace_path);
        spans.writeChromeJson(os);
        if (!os.flush()) {
            std::fprintf(stderr, "ccsvm-bench: cannot write %s\n",
                         trace_path.c_str());
            return 1;
        }
    }
    return rc;
}
