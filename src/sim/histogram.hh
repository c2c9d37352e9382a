/**
 * @file
 * Sample statistics: the moments accumulator that Distribution and
 * LatencyHistogram share, and the log2-bucketed latency histogram.
 *
 * The paper's argument is about latency *shape*, not just means: the
 * multi-tenant tail-latency scenario (ROADMAP) needs p99s, and the
 * synth patterns need to show how coherence choices move the whole
 * distribution. A histogram with power-of-two buckets covers the full
 * Tick range at fixed memory cost and gives percentiles by linear
 * interpolation inside the containing bucket.
 *
 * Samples accumulate into one slot per engine partition
 * (PerPartition): counts and buckets are integers (commute), and the
 * running sums are doubles folded in slot order, so results are
 * byte-identical at any --sim-threads value.
 */

#ifndef CCSVM_SIM_HISTOGRAM_HH
#define CCSVM_SIM_HISTOGRAM_HH

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <limits>
#include <string>

#include "sim/parteventq.hh"

namespace ccsvm::sim
{

/** Count, sum, min and max of a stream of samples of type V. */
template <typename V>
struct Moments
{
    std::uint64_t count = 0;
    double sum = 0;
    V min = std::numeric_limits<V>::max();
    V max = std::numeric_limits<V>::lowest();

    void
    add(V x)
    {
        ++count;
        sum += static_cast<double>(x);
        min = std::min(min, x);
        max = std::max(max, x);
    }

    void
    fold(const Moments &o)
    {
        count += o.count;
        sum += o.sum;
        min = std::min(min, o.min);
        max = std::max(max, o.max);
    }
};

/**
 * A named sample statistic over per-partition Slots (Moments or a
 * type derived from it). Reads fold every slot in index order; the
 * minimum and maximum of an empty statistic read as 0.
 */
template <typename Slot>
class SampleStat
{
  public:
    using Value = decltype(Slot::min);

    SampleStat(std::string name, std::string desc, int slots = 1)
        : name_(std::move(name)), desc_(std::move(desc)), slots_(slots)
    {}

    const std::string &name() const { return name_; }
    const std::string &desc() const { return desc_; }

    std::uint64_t count() const { return total().count; }
    double sum() const { return total().sum; }

    double
    mean() const
    {
        const Slot t = total();
        return t.count ? t.sum / t.count : 0.0;
    }

    Value
    minValue() const
    {
        const Slot t = total();
        return t.count ? t.min : Value{};
    }

    Value
    maxValue() const
    {
        const Slot t = total();
        return t.count ? t.max : Value{};
    }

  protected:
    Slot
    total() const
    {
        Slot t;
        for (const Slot &s : slots_)
            t.fold(s);
        return t;
    }

    std::string name_;
    std::string desc_;
    PerPartition<Slot> slots_;
};

/** LatencyHistogram's slot: the moments plus the bucket counts.
 * Bucket 0 holds the value 0; bucket b >= 1 holds [2^(b-1), 2^b),
 * so 64-bit samples need buckets 0..64. */
struct Log2Buckets : Moments<std::uint64_t>
{
    static constexpr unsigned kBuckets = 65;
    std::array<std::uint64_t, kBuckets> buckets{};

    void
    fold(const Log2Buckets &o)
    {
        Moments::fold(o);
        for (unsigned b = 0; b < kBuckets; ++b)
            buckets[b] += o.buckets[b];
    }
};

/** Power-of-two-bucketed histogram of unsigned samples (ticks). */
class LatencyHistogram : public SampleStat<Log2Buckets>
{
  public:
    using SampleStat::SampleStat;

    static unsigned
    bucketOf(std::uint64_t v)
    {
        return static_cast<unsigned>(std::bit_width(v));
    }

    void
    record(std::uint64_t v)
    {
        Log2Buckets &s = slots_.local();
        s.add(v);
        ++s.buckets[bucketOf(v)];
    }

    /**
     * The @p p-th percentile (p in [0, 100]), linearly interpolated
     * inside the containing bucket and clamped to the observed
     * [min, max] — so a histogram holding a single repeated value
     * reports that exact value at every percentile. 0 when empty.
     */
    double
    percentile(double p) const
    {
        const Log2Buckets t = total();
        if (t.count == 0)
            return 0.0;
        const double target =
            std::max(1.0, p / 100.0 * static_cast<double>(t.count));
        double cum = 0;
        for (unsigned b = 0; b < Log2Buckets::kBuckets; ++b) {
            if (t.buckets[b] == 0)
                continue;
            const double cnt = static_cast<double>(t.buckets[b]);
            if (cum + cnt >= target) {
                const double lo =
                    b == 0 ? 0.0
                           : static_cast<double>(std::uint64_t(1)
                                                 << (b - 1));
                const double hi = b == 0 ? 0.0 : lo * 2.0;
                const double frac = (target - cum) / cnt;
                const double v = lo + frac * (hi - lo);
                return std::clamp(v, static_cast<double>(t.min),
                                  static_cast<double>(t.max));
            }
            cum += cnt;
        }
        return static_cast<double>(t.max);
    }

    /** Fold every slot of @p o, whatever its slot count, into the
     * executing partition's slot. */
    void
    merge(const LatencyHistogram &o)
    {
        Log2Buckets &s = slots_.local();
        for (const Log2Buckets &os : o.slots_)
            s.fold(os);
    }
};

} // namespace ccsvm::sim

#endif // CCSVM_SIM_HISTOGRAM_HH
