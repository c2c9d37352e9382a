#include "sim/trace.hh"

#include <algorithm>
#include <cstdio>
#include <tuple>

#include "base/logging.hh"

namespace ccsvm::sim
{

bool
Tracer::parseCategories(const std::string &list, unsigned &mask)
{
    unsigned m = 0;
    std::size_t pos = 0;
    while (pos <= list.size()) {
        std::size_t comma = list.find(',', pos);
        if (comma == std::string::npos)
            comma = list.size();
        const std::string tok = list.substr(pos, comma - pos);
        if (tok == "all")
            m |= traceAll;
        else if (tok == "coh")
            m |= traceCoh;
        else if (tok == "noc")
            m |= traceNoc;
        else if (tok == "vm")
            m |= traceVm;
        else if (tok == "kernel")
            m |= traceKernel;
        else if (tok == "engine")
            m |= traceEngine;
        else if (!tok.empty())
            return false;
        pos = comma + 1;
    }
    mask = m;
    return true;
}

const char *
Tracer::catName(unsigned bit)
{
    switch (bit) {
      case traceCoh: return "coh";
      case traceNoc: return "noc";
      case traceVm: return "vm";
      case traceKernel: return "kernel";
      case traceEngine: return "engine";
      default: return "?";
    }
}

int
Tracer::lane(const std::string &name)
{
    for (std::size_t i = 0; i < lanes_.size(); ++i)
        if (lanes_[i] == name)
            return static_cast<int>(i);
    lanes_.push_back(name);
    return static_cast<int>(lanes_.size() - 1);
}

void
Tracer::setRingCapacity(std::size_t cap)
{
    ccsvm_assert(cap > 0, "trace ring capacity must be positive");
    ringCap_ = cap;
}

void
Tracer::push(TraceEvent ev)
{
    Ring &r = rings_.local();
    ev.srcPart = activePartition();
    ev.srcSeq = r.seq++;
    if (r.buf.size() < ringCap_) {
        r.buf.push_back(ev);
    } else {
        // Full between barriers: overwrite the oldest, count the loss.
        r.buf[r.next] = ev;
        r.next = (r.next + 1) % ringCap_;
        r.wrapped = true;
        ++r.dropped;
    }
}

void
Tracer::flush()
{
    for (Ring &r : rings_) {
        if (r.buf.empty())
            continue;
        if (r.wrapped) {
            // Oldest surviving event sits at the overwrite cursor.
            merged_.insert(merged_.end(), r.buf.begin() + r.next,
                           r.buf.end());
            merged_.insert(merged_.end(), r.buf.begin(),
                           r.buf.begin() + r.next);
        } else {
            merged_.insert(merged_.end(), r.buf.begin(), r.buf.end());
        }
        r.buf.clear();
        r.next = 0;
        r.wrapped = false;
        sorted_ = false;
    }
}

std::uint64_t
Tracer::recorded() const
{
    std::uint64_t n = 0;
    for (const Ring &r : rings_)
        n += r.seq;
    return n;
}

std::uint64_t
Tracer::dropped() const
{
    std::uint64_t n = 0;
    for (const Ring &r : rings_)
        n += r.dropped;
    return n;
}

void
Tracer::sortMerged()
{
    if (sorted_)
        return;
    // (when, recording partition, record sequence) is a total order
    // that no host schedule affects: any host interleaving of the
    // rings collapses to one canonical sequence.
    std::sort(merged_.begin(), merged_.end(),
              [](const TraceEvent &a, const TraceEvent &b) {
                  return std::tie(a.when, a.srcPart, a.srcSeq) <
                         std::tie(b.when, b.srcPart, b.srcSeq);
              });
    sorted_ = true;
}

const std::vector<TraceEvent> &
Tracer::events()
{
    flush();
    sortMerged();
    return merged_;
}

namespace
{

/** Ticks (ps) -> trace-format microseconds, exactly. */
std::string
ticksToUs(Tick t)
{
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%llu.%06llu",
                  static_cast<unsigned long long>(t / 1000000),
                  static_cast<unsigned long long>(t % 1000000));
    return buf;
}

} // namespace

void
Tracer::writeJson(std::ostream &os)
{
    flush();
    sortMerged();
    os << "{\n\"displayTimeUnit\": \"ns\",\n"
       << "\"otherData\": {\"recorded\": " << recorded()
       << ", \"dropped\": " << dropped() << "},\n"
       << "\"traceEvents\": [\n"
       << "{\"ph\": \"M\", \"pid\": 0, \"name\": \"process_name\", "
          "\"args\": {\"name\": \"ccsvm\"}}";
    for (std::size_t i = 0; i < lanes_.size(); ++i) {
        os << ",\n{\"ph\": \"M\", \"pid\": 0, \"tid\": " << i
           << ", \"name\": \"thread_name\", \"args\": {\"name\": \""
           << lanes_[i] << "\"}}";
    }
    for (const TraceEvent &ev : merged_) {
        os << ",\n{\"ph\": \"" << ev.phase << "\", \"pid\": 0, \"tid\": "
           << ev.lane << ", \"ts\": " << ticksToUs(ev.when);
        if (ev.phase == 'X')
            os << ", \"dur\": " << ticksToUs(ev.dur);
        else
            os << ", \"s\": \"t\"";
        os << ", \"cat\": \"" << catName(ev.cat) << "\", \"name\": \""
           << ev.name << "\"";
        if (ev.hasArg) {
            char hex[24];
            std::snprintf(hex, sizeof(hex), "0x%llx",
                          static_cast<unsigned long long>(ev.arg));
            os << ", \"args\": {\"arg\": \"" << hex << "\"}";
        }
        os << "}";
    }
    os << "\n]\n}\n";
}

} // namespace ccsvm::sim
