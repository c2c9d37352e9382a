/**
 * @file
 * The coherent cache system: every core's private L1 and the home
 * banks (the L2/directory slices block addresses map to) that keep
 * them coherent. The CCSVM chip, the APU baseline and the protocol
 * test harness all build their controllers here, so one set of rules
 * holds for each of them:
 *  - L1s are numbered cluster by cluster in the order given (CPUs
 *    first), and an L1's id is its NoC node; bank b is at node
 *    numL1s() + b;
 *  - the i-th L1 of a cluster is "<kind><i>.l1" and records into
 *    latency.<kind>.*; bank b is "dir<b>"; l1Total and bankTotal sum
 *    one counter over them.
 * Controllers reach their peers, each block's home and each other's
 * protocol and core kind through this class instead of keeping
 * copies. homeOf() is the one address-to-home-bank lookup, send() is
 * the one way a protocol message crosses the network, and the class
 * is the one runtime::FunctionalMem: a host read sees a dirty owner
 * L1, then the home bank, then memory.
 */

#ifndef CCSVM_COHERENCE_CACHE_SYSTEM_HH
#define CCSVM_COHERENCE_CACHE_SYSTEM_HH

#include <memory>
#include <string>
#include <vector>

#include "base/logging.hh"
#include "coherence/directory.hh"
#include "coherence/l1_cache.hh"
#include "coherence/monitor.hh"
#include "coherence/slice_hash.hh"
#include "runtime/functional_mem.hh"

namespace ccsvm::coherence
{

/** What a cache system is built from. */
struct CacheSystemConfig
{
    std::vector<L1Cluster> clusters; ///< L1 ids follow this order
    DirConfig bank;                  ///< every home bank's geometry
    /** One event queue per home bank: their count is the bank count. */
    std::vector<sim::EventQueue *> bankQueues;
    SliceHashKind sliceHash = SliceHashKind::Mod;
    bool swmrChecks = true; ///< run the SWMR monitor over every L1
};

/**
 * The partition queue owning each node of a @p nodes-node network
 * under the numbering above: an L1's cluster queue, a bank's own
 * queue, and @p rest for every other node (a device, grid padding).
 */
std::vector<sim::EventQueue *> nodeQueues(const CacheSystemConfig &cfg,
                                          int nodes,
                                          sim::EventQueue &rest);

/** Every L1 and home bank of one machine, built and wired. */
class CacheSystem : public runtime::FunctionalMem
{
  public:
    CacheSystem(const CacheSystemConfig &cfg, sim::StatRegistry &stats,
                noc::Network &net, mem::DramCtrl &dram,
                mem::PhysMem &phys);

    int numL1s() const { return static_cast<int>(l1s_.size()); }
    int numBanks() const { return static_cast<int>(banks_.size()); }

    L1Controller &
    l1(L1Id id) const
    {
        ccsvm_assert(id >= 0 && id < numL1s(), "bad L1 id %d", id);
        return *l1s_[static_cast<std::size_t>(id)];
    }

    Directory &bank(int b) const { return *banks_.at(b); }

    /** The home bank of @p block_addr. */
    Directory &
    homeOf(Addr block_addr) const
    {
        return *banks_[static_cast<std::size_t>(
            hash_->bankOf(block_addr, numBanks()))];
    }

    const SliceHash &hash() const { return *hash_; }

    /** Stat name prefix of L1 @p id ("cpu3.l1"). */
    std::string l1Name(L1Id id) const;
    /** Stat name prefix of home bank @p b ("dir2"). */
    static std::string bankName(int b) { return "dir" + std::to_string(b); }

    /** Counter <l1Name(id)><suffix> summed over every L1
     * (l1Total(".invs")). */
    std::uint64_t l1Total(const std::string &suffix) const;
    /** Counter <bankName(b)><suffix> summed over every home bank
     * (bankTotal(".fetches")). */
    std::uint64_t bankTotal(const std::string &suffix) const;

    /** The SWMR monitor; nullptr when the checks are off. */
    const SwmrMonitor *monitor() const { return monitor_.get(); }

    /** Send @p msg over the network from node @p from to the
     * controller at node @p to (an L1 id, or a bank's node()); it is
     * handled there on arrival. */
    void send(noc::NodeId from, noc::NodeId to, CohMsg msg) const;

    /** The delayed form: @p msg enters the network @p delay ticks
     * from now on @p q, the sender's queue (a bank's access latency).
     * The message is wrapped once, now, and the delayed event holds
     * that wrapper. */
    void send(noc::NodeId from, noc::NodeId to, CohMsg msg,
              sim::EventQueue &q, Tick delay) const;

    void funcRead(Addr pa, void *dst, unsigned len) override;
    void funcWrite(Addr pa, const void *src, unsigned len) override;

  private:
    /** The closure that hands @p msg to the controller at @p to. */
    noc::Network::Deliver deliveryTo(noc::NodeId to, CohMsg msg) const;

    std::vector<L1Cluster> clusters_;
    const SliceHash *hash_;
    noc::Network *net_;
    mem::PhysMem *phys_;
    std::unique_ptr<SwmrMonitor> monitor_;
    std::vector<std::unique_ptr<L1Controller>> l1s_;
    std::vector<std::unique_ptr<Directory>> banks_;
    const sim::StatRegistry *stats_;
};

} // namespace ccsvm::coherence

#endif // CCSVM_COHERENCE_CACHE_SYSTEM_HH
