/**
 * @file
 * Banked, inclusive shared L2 cache with an embedded directory.
 * Protocol-specific decisions (E fills, Owned vs writeback-on-read)
 * are delegated to the ProtocolPolicy of the L1s involved, which the
 * bank looks up through its CacheSystem, so the same bank runs MSI,
 * MESI or MOESI (the default) — and a different protocol per L1
 * cluster: the bank resolves every transaction against the
 * requestor's cluster policy (sole-copy fills) or the
 * owner/requestor pair (dirty sharing), so a MOESI CPU cluster and
 * an MSI MTTOP cluster share one directory soundly.
 *
 * This is the paper's home node: "the shared L2 cache is banked and
 * co-located with a banked directory that holds state used for cache
 * coherence" (Sec. 3.1), with "directory state embedded in the L2
 * blocks, similar to recent Intel and AMD chips. With an inclusive L2,
 * an L2 miss indicates that the block is not cached in any L1 and thus
 * triggers an access to off-chip memory" (Sec. 3.2.2).
 *
 * The directory is blocking: one transaction per block at a time,
 * opened by openTxn() and closed by the requestor's Unblock message;
 * requests to a busy block stall, and are retried in arrival order
 * when it frees. Inclusive-L2 evictions recall the block from all L1
 * holders before freeing the frame.
 */

#ifndef CCSVM_COHERENCE_DIRECTORY_HH
#define CCSVM_COHERENCE_DIRECTORY_HH

#include <limits>
#include <string>
#include <vector>

#include "base/recycling_map.hh"
#include "base/types.hh"
#include "cache/cache_array.hh"
#include "cache/replacer.hh"
#include "coherence/msgs.hh"
#include "coherence/protocol.hh"
#include "mem/dram.hh"
#include "mem/phys_mem.hh"
#include "noc/network.hh"
#include "sim/eventq.hh"
#include "sim/stats.hh"

namespace ccsvm::coherence
{

class CacheSystem;

/** Geometry and timing of one L2 bank + directory slice. */
struct DirConfig
{
    Addr bankSizeBytes = 1024 * 1024; ///< Table 2: 4 x 1 MB banks
    unsigned assoc = 16;
    Tick l2DataLatency = 3450;  ///< ~10 CPU cycles / 2 MTTOP cycles
    Tick ctrlLatency = 1000;    ///< directory state access

    /**
     * Directory-at-memory mode (the APU baseline's CPU cluster): the
     * bank tracks coherence state but has no shared data cache — data
     * "served from the L2" is really fetched from DRAM (counted), and
     * dirty writebacks flush straight to DRAM. Llano's CPUs share
     * only the Unified Northbridge, not a cache (paper Sec. 2.3).
     */
    bool memoryResident = false;

    /** L2/directory-entry replacement policy for victim selection. */
    cache::ReplacerKind replace = cache::ReplacerKind::Lru;
};

/** One L2 bank with embedded directory state. */
class Directory
{
  public:
    /** A line's sharer set, one bit per L1 (bit i = L1Id i). */
    using SharerMask = std::uint32_t;
    /** L1s one directory can track: the bits of a SharerMask. */
    static constexpr int maxL1s = std::numeric_limits<SharerMask>::digits;
    static_assert(maxL1s <=
                      std::numeric_limits<decltype(CohMsg::sender)>::max(),
                  "a message's one-byte L1 ids name every L1");

    Directory(const CacheSystem &sys, sim::EventQueue &eq,
              sim::StatRegistry &stats, const std::string &name,
              const DirConfig &cfg, int bank_id, noc::NodeId node,
              mem::DramCtrl &dram, mem::PhysMem &phys);

    /** Network-side entry point. */
    void handleMessage(CohMsg msg);

    noc::NodeId node() const { return node_; }

    /** Number of open transactions + stalled messages (for tests). */
    std::size_t pendingWork() const;

    /** Describe any open work (for test diagnostics). */
    std::string describePending() const;

    /** Directory's view of a block (for tests): returns true and fills
     * the out-params when the block is present in this bank. */
    bool probe(Addr block_addr, DirState &st, L1Id &owner,
               unsigned &num_sharers);

    /** Functional probe: copy L2 data if the block is resident. A
     * memory-resident bank has no data cache and never answers. */
    bool funcReadBlock(Addr block_addr, std::uint8_t *out);

    /** Functional write-through into a resident L2 copy. */
    void funcWriteBlock(Addr block_addr, unsigned offset,
                        const void *src, unsigned len);

  private:
    /** L2 line with embedded directory state. */
    struct L2Line
    {
        Addr addr = invalidAddr;
        bool valid = false;
        bool busy = false;   ///< transaction or recall in flight
        bool dirty = false;  ///< L2 data newer than DRAM
        DirState st = DirState::S;
        L1Id owner = noL1;
        SharerMask sharers = 0;
        /** Region of the block, stamped by every transaction. A
         * block belongs to exactly one VM region, so every request
         * agrees; ProtocolOverride lines resolve both ends of a
         * transaction against the region's protocol instead of the
         * clusters'. */
        Region region;
        std::array<std::uint8_t, mem::blockBytes> data{};

        /** The region replacement policy's preference hook: lines a
         * workload marked non-default (bypass-adjacent or
         * protocol-override/read-mostly) volunteer for eviction
         * before hard-earned default-coherent lines. */
        bool evictPreferred() const
        {
            return region.attr != RegionAttr::Coherent;
        }
    };

    /** Open Get transaction, closed by Unblock. */
    struct Txn
    {
        MsgType req = MsgType::GetS;
        L1Id requestor = noL1;
        bool forwarded = false;
        L1Id oldOwner = noL1;
        Tick startTick = 0; ///< trace span start (request accepted)
    };

    /** Inclusive-eviction recall in progress. */
    struct Recall
    {
        int acksLeft = 0;
        CohMsg pendingReq; ///< the allocation that triggered it
    };

    // --- request processing (line not busy on entry) ---
    void processRequest(CohMsg &msg);
    void processGetS(CohMsg &msg, L2Line *line);
    void processGetM(CohMsg &msg, L2Line *line);
    /** Uncacheable scalar op from a bypass region: run it at the home
     * (resident L2 copy, else DRAM) without allocating or granting
     * any L1 permission. */
    void processBypass(CohMsg &msg, L2Line *line);
    void processPutS(CohMsg &msg, L2Line *line);
    void processPutOwned(CohMsg &msg, L2Line *line);
    void processUnblock(CohMsg &msg);
    void processRecallResponse(CohMsg &msg);

    /** Open @p msg's GetS or GetM transaction on @p line: mark the
     * line busy until the Unblock and stamp it with the request's
     * region. */
    Txn &openTxn(L2Line &line, const CohMsg &msg);

    /** NP block: allocate a frame (recalling a victim if needed) and
     * fetch from DRAM, then grant. */
    void allocateAndFetch(CohMsg msg);
    void startRecall(L2Line *victim, CohMsg pending_msg);
    void finishRecall(Addr victim_addr);

    void retryStalled(Addr block_addr);
    void retryStalledAllocs();

    /** Take dirty data arriving at the home (dirty PutOwned, or a
     * dirty Unblock under protocols without O): update the L2 copy
     * and either mark it dirty or, in memory-resident mode, flush it
     * off-chip immediately. */
    void absorbDirtyData(L2Line &line, const CohMsg &msg);

    // --- helpers ---
    static unsigned popcount(SharerMask m);
    bool isSharer(const L2Line &line, L1Id id) const;
    /** L1 @p id serves an MTTOP core. */
    bool isMttopL1(L1Id id) const;
    /** The protocol policy of L1 @p id's cluster. */
    const ProtocolPolicy &clusterPolicy(L1Id id) const;
    void sendInvs(L2Line &line, L1Id skip, L1Id ack_dest);
    void sendToL1(L1Id dst, CohMsg msg, Tick extra_latency);
    void sendPutAck(Addr block_addr, L1Id dst);
    /** Serve a data response whose payload nominally comes from the
     * L2 array; in memory-resident mode it is fetched off-chip. */
    void serveData(L1Id dst, CohMsg msg);

    const CacheSystem *sys_;
    sim::EventQueue *eq_;
    DirConfig cfg_;
    int bankId_;
    noc::NodeId node_;
    mem::DramCtrl *dram_;
    mem::PhysMem *phys_;

    cache::CacheArray<L2Line> array_;
    RecyclingMap<Addr, Txn> txns_;
    RecyclingMap<Addr, Recall> recalls_;
    /** Requests to busy blocks, every block's in arrival order. */
    std::vector<CohMsg> stalled_;
    std::vector<CohMsg> stalledAllocs_;

    sim::Counter &getS_;
    sim::Counter &getM_;
    sim::Counter &fetches_;
    /** fetches split by the requesting block's region class (bypass
     * regions never fill the L2, so they have no fetch counter —
     * their traffic shows up as bypassReads/bypassWrites instead). */
    sim::Counter &fetchesCoherent_;
    sim::Counter &fetchesOverride_;
    sim::Counter &writebacks_;
    /** Uncacheable ops served at the home for bypass regions (an AMO
     * counts as a write). */
    sim::Counter &bypassReads_;
    sim::Counter &bypassWrites_;
    sim::Counter &sharingWb_;
    /** sharingWb split by the cluster of the requestor that carried
     * the dirty data home (the side paying the writeback). */
    sim::Counter &sharingWbCpu_;
    sim::Counter &sharingWbMttop_;
    /** Invalidations sent, split by destination cluster. */
    sim::Counter &invsSentCpu_;
    sim::Counter &invsSentMttop_;
    /** Invalidations sent, split by the block's region class. */
    sim::Counter &invsSentCoherent_;
    sim::Counter &invsSentOverride_;
    sim::Counter &recallsStat_;
    sim::Counter &stalls_;
    /** Coherence requests accepted at this bank (Get/Put/Bypass
     * arrivals, including retries after a recall frees their frame) —
     * the per-bank load-balance view of the slice hash. */
    sim::Counter &requests_;
    /** High-water mark of valid lines in this bank — the per-bank
     * capacity-balance view of the slice hash. */
    sim::Counter &occupancy_;
    /** Set-conflict evictions: recalls started to free a frame for an
     * allocation, total and split for victims that were
     * default-coherent lines (what the region replacer protects). */
    sim::Counter &conflictEvictions_;
    sim::Counter &conflictEvictionsCoherent_;
    /** Home-side transaction latency (request accepted to Unblock). */
    sim::LatencyHistogram &dirLat_;

    /** Current/peak valid-line levels behind occupancy_. */
    unsigned occLevel_ = 0;
    unsigned occPeak_ = 0;

    sim::Tracer &trc_;
    int lane_;
};

} // namespace ccsvm::coherence

#endif // CCSVM_COHERENCE_DIRECTORY_HH
