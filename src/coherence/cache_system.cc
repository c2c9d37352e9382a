#include "coherence/cache_system.hh"

#include <algorithm>
#include <cstring>

namespace ccsvm::coherence
{

namespace
{

/** Call @p fn(block, offset, len) on each block-bounded piece of
 * [pa, pa + len), in address order. */
template <typename Fn>
void
forEachBlock(Addr pa, unsigned len, Fn fn)
{
    while (len > 0) {
        const Addr block = mem::blockAlign(pa);
        const unsigned off = static_cast<unsigned>(pa - block);
        const unsigned chunk =
            std::min<unsigned>(len, mem::blockBytes - off);
        fn(block, off, chunk);
        pa += chunk;
        len -= chunk;
    }
}

} // namespace

std::vector<sim::EventQueue *>
nodeQueues(const CacheSystemConfig &cfg, int nodes, sim::EventQueue &rest)
{
    std::vector<sim::EventQueue *> queues;
    queues.reserve(static_cast<std::size_t>(nodes));
    for (const L1Cluster &c : cfg.clusters)
        queues.insert(queues.end(), static_cast<std::size_t>(c.count),
                      c.queue);
    queues.insert(queues.end(), cfg.bankQueues.begin(),
                  cfg.bankQueues.end());
    ccsvm_assert(static_cast<int>(queues.size()) <= nodes,
                 "%zu L1s and banks on a %d-node network",
                 queues.size(), nodes);
    queues.resize(static_cast<std::size_t>(nodes), &rest);
    return queues;
}

CacheSystem::CacheSystem(const CacheSystemConfig &cfg,
                         sim::StatRegistry &stats, noc::Network &net,
                         mem::DramCtrl &dram, mem::PhysMem &phys)
    : clusters_(cfg.clusters), hash_(&sliceHash(cfg.sliceHash)),
      net_(&net), phys_(&phys), stats_(&stats)
{
    int num_l1s = 0;
    for (const L1Cluster &c : clusters_)
        num_l1s += c.count;
    ccsvm_assert(num_l1s <= Directory::maxL1s,
                 "%d L1s: a directory's sharer mask tracks at most %d",
                 num_l1s, Directory::maxL1s);
    ccsvm_assert(!cfg.bankQueues.empty(), "no home banks");
    if (cfg.swmrChecks)
        monitor_ = std::make_unique<SwmrMonitor>();

    for (const L1Cluster &c : clusters_) {
        for (int i = 0; i < c.count; ++i) {
            const L1Id id = numL1s();
            l1s_.push_back(std::make_unique<L1Controller>(
                *this, c, stats, l1Name(id), id, /*node=*/id,
                monitor_.get()));
        }
    }
    for (int b = 0; b < static_cast<int>(cfg.bankQueues.size()); ++b) {
        banks_.push_back(std::make_unique<Directory>(
            *this, *cfg.bankQueues[b], stats, bankName(b),
            cfg.bank, b, /*node=*/num_l1s + b, dram, phys));
    }
}

noc::Network::Deliver
CacheSystem::deliveryTo(noc::NodeId to, CohMsg msg) const
{
    return [this, to, msg = std::move(msg)]() mutable {
        if (to < numL1s())
            l1(to).handleMessage(std::move(msg));
        else
            bank(to - numL1s()).handleMessage(std::move(msg));
    };
}

void
CacheSystem::send(noc::NodeId from, noc::NodeId to, CohMsg msg) const
{
    const unsigned bytes = msg.wireBytes();
    net_->send(from, to, bytes, deliveryTo(to, std::move(msg)));
}

void
CacheSystem::send(noc::NodeId from, noc::NodeId to, CohMsg msg,
                  sim::EventQueue &q, Tick delay) const
{
    const unsigned bytes = msg.wireBytes();
    auto deliver = deliveryTo(to, std::move(msg));
    q.scheduleIn(delay, [this, from, to, bytes,
                         deliver = std::move(deliver)]() mutable {
        net_->send(from, to, bytes, std::move(deliver));
    });
}

std::string
CacheSystem::l1Name(L1Id id) const
{
    L1Id first = 0;
    for (const L1Cluster &c : clusters_) {
        if (id >= first && id < first + c.count)
            return coreKindName(c.kind) + std::to_string(id - first) +
                   ".l1";
        first += c.count;
    }
    ccsvm_panic("bad L1 id %d", id);
}

std::uint64_t
CacheSystem::l1Total(const std::string &suffix) const
{
    std::uint64_t total = 0;
    for (L1Id id = 0; id < numL1s(); ++id)
        total += stats_->get(l1Name(id) + suffix);
    return total;
}

std::uint64_t
CacheSystem::bankTotal(const std::string &suffix) const
{
    std::uint64_t total = 0;
    for (int b = 0; b < numBanks(); ++b)
        total += stats_->get(bankName(b) + suffix);
    return total;
}

void
CacheSystem::funcRead(Addr pa, void *dst, unsigned len)
{
    auto *out = static_cast<std::uint8_t *>(dst);
    forEachBlock(pa, len, [&](Addr block, unsigned off, unsigned n) {
        // A dirty owner (E/M/O at some L1) is authoritative, then the
        // home bank's L2 copy, then physical memory.
        std::uint8_t buf[mem::blockBytes];
        if (std::none_of(l1s_.begin(), l1s_.end(),
                         [&](const auto &l1) {
                             return l1->funcReadBlock(block, buf);
                         }) &&
            !homeOf(block).funcReadBlock(block, buf))
            phys_->readBlock(block, buf);
        std::memcpy(out, buf + off, n);
        out += n;
    });
}

void
CacheSystem::funcWrite(Addr pa, const void *src, unsigned len)
{
    // Write through memory and every copy so no cache holds stale data.
    const auto *in = static_cast<const std::uint8_t *>(src);
    forEachBlock(pa, len, [&](Addr block, unsigned off, unsigned n) {
        phys_->write(block + off, in, n);
        for (auto &l1 : l1s_)
            l1->funcWriteBlock(block, off, in, n);
        homeOf(block).funcWriteBlock(block, off, in, n);
        in += n;
    });
}

} // namespace ccsvm::coherence
