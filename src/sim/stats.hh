/**
 * @file
 * A small statistics package: named counters, distributions and
 * latency histograms owned by a per-machine registry, dumpable as text
 * and queryable by benches. Every stat keeps one slot per partition of
 * the machine's engine (PerPartition).
 */

#ifndef CCSVM_SIM_STATS_HH
#define CCSVM_SIM_STATS_HH

#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <ostream>
#include <string>

#include "sim/histogram.hh"
#include "sim/parteventq.hh"
#include "sim/trace.hh"

namespace ccsvm::sim
{

/** Escape a string for inclusion in a JSON document. */
inline std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size() + 2);
    for (const char ch : s) {
        switch (ch) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(ch) < 0x20 ||
                static_cast<unsigned char>(ch) >= 0x7f) {
                // Control bytes are forbidden in JSON strings, and a
                // raw high-bit byte need not be valid UTF-8; escape
                // both. Widen through unsigned char: a negative char
                // sign-extends into an 8-hex-digit escape that no
                // JSON parser accepts.
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(
                                  static_cast<unsigned char>(ch)));
                out += buf;
            } else {
                out += ch;
            }
        }
    }
    return out;
}

/** Format a double as a JSON number (JSON has no inf/nan). */
inline std::string
jsonNumber(double x)
{
    if (!(x == x) || x > 1e308 || x < -1e308)
        return "null";
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", x);
    return buf;
}

/**
 * Monotonically increasing event counter, one plain integer slot per
 * engine partition (see PerPartition). Integer sums commute, so a
 * counter bumped from several partitions (the torus packet counters)
 * totals exactly at any host thread count. value() folds every slot:
 * read it on the host or at a window barrier.
 */
class Counter
{
  public:
    Counter(std::string name, std::string desc, int slots = 1)
        : name_(std::move(name)), desc_(std::move(desc)), slots_(slots)
    {}

    const std::string &name() const { return name_; }
    const std::string &desc() const { return desc_; }

    std::uint64_t
    value() const
    {
        std::uint64_t n = 0;
        for (const std::uint64_t v : slots_)
            n += v;
        return n;
    }

    Counter &
    operator++()
    {
        ++slots_.local();
        return *this;
    }

    Counter &
    operator+=(std::uint64_t n)
    {
        slots_.local() += n;
        return *this;
    }

  private:
    std::string name_;
    std::string desc_;
    PerPartition<std::uint64_t> slots_;
};

/** Running distribution of double samples: count, sum, mean, min and
 * max (see SampleStat). */
class Distribution : public SampleStat<Moments<double>>
{
  public:
    using SampleStat::SampleStat;

    void record(double x) { slots_.local().add(x); }
};

/**
 * Owns all statistics for one simulated machine. Components request
 * counters by hierarchical dotted name (e.g. "dram.reads"); requesting
 * an existing name returns the existing stat so multiple components can
 * share an aggregate. Every stat and the tracer get one slot per
 * partition of the engine the machine runs on.
 */
class StatRegistry
{
  public:
    /** @param partitions the engine's partition count; 1 for stats
     * written only outside an engine. */
    explicit StatRegistry(int partitions = 1)
        : partitions_(partitions), tracer_(partitions)
    {}

    Counter &
    counter(const std::string &name, const std::string &desc = "")
    {
        return getOrCreate(counters_, name, desc);
    }

    Distribution &
    distribution(const std::string &name, const std::string &desc = "")
    {
        return getOrCreate(dists_, name, desc);
    }

    LatencyHistogram &
    histogram(const std::string &name, const std::string &desc = "")
    {
        return getOrCreate(histos_, name, desc);
    }

    /** The machine's trace recorder (off until a category mask is
     * set; see Tracer). Living here lets every component reach it
     * through the StatRegistry& it already takes. */
    Tracer &tracer() { return tracer_; }

    /** Value of a counter, or 0 if it was never created. */
    std::uint64_t
    get(const std::string &name) const
    {
        auto it = counters_.find(name);
        return it == counters_.end() ? 0 : it->second->value();
    }

    bool
    hasCounter(const std::string &name) const
    {
        return counters_.count(name) != 0;
    }

    /** Text dump in name order, gem5 stats.txt style. */
    void
    dump(std::ostream &os) const
    {
        for (const auto &[name, c] : counters_) {
            os << name << " " << c->value();
            if (!c->desc().empty())
                os << "   # " << c->desc();
            os << "\n";
        }
        for (const auto &[name, d] : dists_) {
            os << name << "::count " << d->count() << "\n"
               << name << "::mean " << d->mean() << "\n"
               << name << "::min " << d->minValue() << "\n"
               << name << "::max " << d->maxValue() << "\n";
        }
        for (const auto &[name, h] : histos_) {
            os << name << "::count " << h->count() << "\n"
               << name << "::mean " << h->mean() << "\n"
               << name << "::min " << h->minValue() << "\n"
               << name << "::max " << h->maxValue() << "\n"
               << name << "::p50 " << h->percentile(50) << "\n"
               << name << "::p99 " << h->percentile(99) << "\n";
        }
    }

    /**
     * JSON dump: one object with "counters" (name -> value),
     * "distributions" (name -> {count, sum, mean, min, max}) and
     * "histograms" (name -> {count, mean, min, max, p50..p999})
     * members. Emitted sorted by name so diffs between runs are
     * stable. The driver and the figure benchmarks both embed this
     * object in their output files.
     */
    void
    dumpJson(std::ostream &os, const std::string &indent = "") const
    {
        const std::string in1 = indent + "  ";
        const std::string in2 = in1 + "  ";
        os << "{\n" << in1 << "\"counters\": {";
        bool first = true;
        for (const auto &[name, c] : counters_) {
            os << (first ? "\n" : ",\n") << in2 << '"'
               << jsonEscape(name) << "\": " << c->value();
            first = false;
        }
        os << (first ? "" : "\n" + in1) << "},\n"
           << in1 << "\"distributions\": {";
        first = true;
        for (const auto &[name, d] : dists_) {
            os << (first ? "\n" : ",\n") << in2 << '"'
               << jsonEscape(name) << "\": {"
               << "\"count\": " << d->count()
               << ", \"sum\": " << jsonNumber(d->sum())
               << ", \"mean\": " << jsonNumber(d->mean())
               << ", \"min\": " << jsonNumber(d->minValue())
               << ", \"max\": " << jsonNumber(d->maxValue()) << "}";
            first = false;
        }
        os << (first ? "" : "\n" + in1) << "},\n"
           << in1 << "\"histograms\": {";
        first = true;
        for (const auto &[name, h] : histos_) {
            os << (first ? "\n" : ",\n") << in2 << '"'
               << jsonEscape(name) << "\": {"
               << "\"count\": " << h->count()
               << ", \"mean\": " << jsonNumber(h->mean())
               << ", \"min\": " << h->minValue()
               << ", \"max\": " << h->maxValue()
               << ", \"p50\": " << jsonNumber(h->percentile(50))
               << ", \"p90\": " << jsonNumber(h->percentile(90))
               << ", \"p99\": " << jsonNumber(h->percentile(99))
               << ", \"p999\": " << jsonNumber(h->percentile(99.9))
               << "}";
            first = false;
        }
        os << (first ? "" : "\n" + in1) << "}\n" << indent << "}";
    }

  private:
    template <typename S>
    S &
    getOrCreate(std::map<std::string, std::unique_ptr<S>> &stats,
                const std::string &name, const std::string &desc)
    {
        auto it = stats.find(name);
        if (it == stats.end()) {
            it = stats
                     .emplace(name, std::make_unique<S>(name, desc,
                                                        partitions_))
                     .first;
        }
        return *it->second;
    }

    int partitions_;
    std::map<std::string, std::unique_ptr<Counter>> counters_;
    std::map<std::string, std::unique_ptr<Distribution>> dists_;
    std::map<std::string, std::unique_ptr<LatencyHistogram>> histos_;
    Tracer tracer_;
};

} // namespace ccsvm::sim

#endif // CCSVM_SIM_STATS_HH
