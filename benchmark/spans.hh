/**
 * @file
 * The harness's own span recorder: name, start, end, parent and run
 * id for each call the harness times, kept in memory and written at
 * exit as Chrome trace-event JSON (loads in Perfetto).
 *
 * Spans are recorded around calls into the simulator, never inside
 * it, so a traced run executes exactly the simulator code an untraced
 * run does. A disabled recorder still times nothing and stores
 * nothing; scopes cost one branch.
 */

#ifndef CCSVM_BENCHMARK_SPANS_HH
#define CCSVM_BENCHMARK_SPANS_HH

#include <chrono>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "sim/stats.hh"

namespace ccsvm::bench
{

using Clock = std::chrono::steady_clock;

class SpanRecorder
{
  public:
    SpanRecorder(bool enabled, std::string run_id)
        : enabled_(enabled), runId_(std::move(run_id)),
          origin_(Clock::now())
    {}

    /** Closes its span when it leaves scope. */
    class Scope
    {
      public:
        Scope(SpanRecorder *rec, int index) : rec_(rec), index_(index) {}
        ~Scope()
        {
            if (rec_)
                rec_->close(index_);
        }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        SpanRecorder *rec_;
        int index_;
    };

    /** Open a span named @p name, child of the innermost open span. */
    [[nodiscard]] Scope
    scope(std::string name)
    {
        if (!enabled_)
            return Scope(nullptr, -1);
        const int parent = open_.empty() ? -1 : open_.back();
        spans_.push_back(Span{std::move(name), nowUs(), 0.0, parent});
        open_.push_back(static_cast<int>(spans_.size()) - 1);
        return Scope(this, open_.back());
    }

    /** Chrome trace JSON: one complete ("X") event per span, with the
     * span id, parent id and run id in its args. */
    void
    writeChromeJson(std::ostream &os) const
    {
        os << "{\"traceEvents\": [\n";
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            os << (i ? ",\n" : "") << "{\"name\": \""
               << sim::jsonEscape(s.name)
               << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": "
               << sim::jsonNumber(s.startUs)
               << ", \"dur\": " << sim::jsonNumber(s.endUs - s.startUs)
               << ", \"args\": {\"id\": " << i
               << ", \"parent\": " << s.parent << ", \"run\": \""
               << sim::jsonEscape(runId_) << "\"}}";
        }
        os << "\n]}\n";
    }

  private:
    struct Span
    {
        std::string name;
        double startUs;
        double endUs;
        int parent;
    };

    double
    nowUs() const
    {
        return std::chrono::duration<double, std::micro>(Clock::now() -
                                                         origin_)
            .count();
    }

    void
    close(int index)
    {
        spans_[index].endUs = nowUs();
        open_.pop_back();
    }

    bool enabled_;
    std::string runId_;
    Clock::time_point origin_;
    std::vector<Span> spans_;
    std::vector<int> open_;
};

} // namespace ccsvm::bench

#endif // CCSVM_BENCHMARK_SPANS_HH
