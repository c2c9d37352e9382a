/**
 * @file
 * L1 cache controller: the per-core side of the directory protocol.
 * Protocol-specific transition decisions (E fills, dirty sharing via
 * O) are delegated to the ProtocolPolicy of the L1's cluster, so the
 * same controller runs MSI, MESI or MOESI (the default). Every L1 is
 * built by a CacheSystem, through which it reaches its peers and each
 * block's home bank.
 *
 * Each CPU core and each MTTOP core has a private write-back L1
 * (Table 2: CPU 64 KB 4-way, MTTOP 16 KB 4-way). Atomics are performed
 * at the L1 after acquiring exclusive coherence permission, as the
 * paper specifies for its MTTOP cores (Sec. 3.2.4). Misses allocate
 * MSHRs (with same-block coalescing, which the MTTOP's many threads
 * rely on); evictions move the block to a victim buffer so forwards
 * and invalidations racing with the eviction can still be answered:
 * held() is the one lookup of the copy a probe reaches, in the array
 * or in the victim buffer.
 */

#ifndef CCSVM_COHERENCE_L1_CACHE_HH
#define CCSVM_COHERENCE_L1_CACHE_HH

#include <string>
#include <vector>

#include "base/recycling_map.hh"
#include "base/types.hh"
#include "cache/cache_array.hh"
#include "coherence/mem_request.hh"
#include "coherence/msgs.hh"
#include "coherence/monitor.hh"
#include "coherence/protocol.hh"
#include "noc/network.hh"
#include "sim/eventq.hh"
#include "sim/stats.hh"

namespace ccsvm::coherence
{

class CacheSystem;

/** L1 geometry and timing. */
struct L1Config
{
    Addr sizeBytes = 64 * 1024;
    unsigned assoc = 4;
    Tick hitLatency = 690;      ///< 2 CPU cycles at 2.9 GHz (Table 2)
    unsigned maxMshrs = 16;
};

/** A cluster of same-kind L1s: one per core of that kind, all with
 * the same geometry and protocol, running in one event queue. */
struct L1Cluster
{
    CoreKind kind = CoreKind::Cpu;
    int count = 0;
    L1Config cfg;
    Protocol protocol = Protocol::MOESI;
    sim::EventQueue *queue = nullptr;
};

/** One L1 cache controller. */
class L1Controller
{
  public:
    L1Controller(const CacheSystem &sys, const L1Cluster &cluster,
                 sim::StatRegistry &stats, const std::string &name,
                 L1Id id, noc::NodeId node, SwmrMonitor *monitor);

    /** Core-side entry point: submit one request. The issuer keeps
     * @p req alive until its onDone runs. */
    void access(MemRequest &req);

    /** Network-side entry point. */
    void handleMessage(CohMsg msg);

    L1Id id() const { return id_; }
    noc::NodeId node() const { return node_; }
    CoreKind kind() const { return kind_; }
    /** The cluster's protocol (a region override applies per block). */
    const ProtocolPolicy &policy() const { return *policy_; }

    /** Stable state of a block (I if absent); for tests. */
    CohState stateOf(Addr block_addr);

    /** Outstanding transactions (for drain checks in tests). */
    std::size_t
    pendingTransactions() const
    {
        return mshrs_.size() + bypassPending_.size();
    }

    /**
     * Functional probe: if this L1 holds @p block_addr in an owner
     * state (E/M/O) — in the array or the victim buffer — copy the 64
     * bytes to @p out and return true.
     */
    bool funcReadBlock(Addr block_addr, std::uint8_t *out);

    /** Functional write-through: patch any copy this L1 holds (array
     * line, victim buffer, or in-flight fill data). */
    void funcWriteBlock(Addr block_addr, unsigned offset,
                        const void *src, unsigned len);

  private:
    /** A FIFO of waiting requests, linked through MemRequest::next. */
    struct RequestQueue
    {
        MemRequest *head = nullptr;
        MemRequest *tail = nullptr;

        bool empty() const { return head == nullptr; }

        void
        push(MemRequest &req)
        {
            req.next = nullptr;
            (tail ? tail->next : head) = &req;
            tail = &req;
        }

        /** Unlink the oldest request; it may be queued again at once. */
        MemRequest &
        pop()
        {
            MemRequest &req = *head;
            head = req.next;
            if (!head)
                tail = nullptr;
            return req;
        }
    };

    /** One L1 line: stable MOESI state plus real data. */
    struct Line
    {
        Addr addr = invalidAddr;
        bool valid = false; ///< in the array (a victim copy is not)
        CohState state = CohState::I;
        Region region; ///< set on every fill
        std::array<std::uint8_t, mem::blockBytes> data{};
    };

    /** Miss status holding register: one outstanding transaction. */
    struct MshrEntry
    {
        Addr blockAddr = invalidAddr;
        bool wantM = false;
        bool issued = false;
        bool dataReceived = false;
        bool granted = false;  ///< dataless GrantM received
        int acksExpected = -1; ///< unknown until Data/Grant arrives
        int acksReceived = 0;
        CohState fillState = CohState::I;
        bool fillDirty = false; ///< DataS came from a dirty owner
        /** The forwarding owner kept the dirty block (O); when clear
         * and fillDirty is set, our Unblock must carry the data home
         * so the L2 copy becomes clean. */
        bool fillOwnerRetained = false;
        std::array<std::uint8_t, mem::blockBytes> data{};
        RequestQueue ops;
        bool unblockSent = false;
        /** Region of the block (uniform across coalesced ops: regions
         * are page-granular, blocks never span pages). */
        Region region;
        /** Tick the transaction's MSHR was allocated (trace span
         * start). */
        Tick startTick = 0;
        /** The transaction (ever) ran as an S/O-to-M upgrade — set at
         * allocation over a held line or on a coalesced-store
         * restart; classifies the latency histogram / trace span. */
        bool upgrade = false;
    };

    /** Victim buffer entry: eviction awaiting PutAck. */
    struct EvictEntry
    {
        /** The evicted line as it left the array (valid cleared):
         * probes racing the put answer from it without changing it. */
        Line line;
        RequestQueue waiters;
    };

    // --- region-bypass path (uncacheable ops at the home node) ---
    void issueBypass(MemRequest &req);
    void handleBypassResp(CohMsg &msg);

    /** The copy of @p block_addr this L1 holds: the array line, else
     * the victim-buffer copy while its put is in flight; nullptr when
     * there is neither. */
    Line *copyOf(Addr block_addr);
    /** The copy a probe (forward, Inv or Recall) reaches; the
     * directory only probes L1s that hold one. */
    Line &held(const CohMsg &msg);

    // --- protocol actions ---
    void startTransaction(MshrEntry &entry);
    void tryComplete(MshrEntry &entry);
    void finalizeFill(MshrEntry &entry);
    void replayOps(MshrEntry &entry, Line *line);
    void retryStalledFills();
    void drainOverflow();

    /** Make room and install a filled block; nullptr when the set is
     * fully occupied by lines with active transactions (fill stalls). */
    Line *installLine(Addr block_addr);
    void evictLine(Line *line);

    /** Functional access on held data; returns the load/old value. */
    std::uint64_t performOp(Line &line, MemRequest &req);
    void completeOp(MemRequest &req, std::uint64_t value);

    /** Record @p req's end-to-end latency — issueTick to completion
     * including the hit pipeline completeOp is about to charge — into
     * @p h and the class-wide aggregate. */
    void recordLatency(sim::LatencyHistogram &h, const MemRequest &req);

    // --- message handlers ---
    void handleFwdGetS(CohMsg &msg);
    void handleFwdGetM(CohMsg &msg);
    void handleInv(CohMsg &msg);
    void handleRecall(CohMsg &msg);
    void handleData(CohMsg &msg);
    void handleInvAck(CohMsg &msg);
    void handlePutAck(CohMsg &msg);

    // --- helpers ---
    /** Send @p msg to its block's home bank. */
    void sendToDir(CohMsg msg);
    void setLineState(Line &line, CohState s);
    void dropLine(Line *line);

    const CacheSystem *sys_;
    sim::EventQueue *eq_;
    L1Config cfg_;
    CoreKind kind_;
    const ProtocolPolicy *policy_;
    L1Id id_;
    noc::NodeId node_;
    SwmrMonitor *monitor_;

    cache::CacheArray<Line> array_;
    RecyclingMap<Addr, MshrEntry> mshrs_;
    RecyclingMap<Addr, EvictEntry> evicts_;
    /** Outstanding bypass ops awaiting their BypassResp, by id. */
    RecyclingMap<std::uint64_t, MemRequest *> bypassPending_;
    std::uint64_t nextBypassId_ = 0;
    /** Misses waiting for a free MSHR. */
    RequestQueue overflow_;
    std::vector<Addr> stalledFills_;

    sim::Counter &hits_;
    sim::Counter &misses_;
    sim::Counter &evictions_;
    sim::Counter &invsReceived_;
    sim::Counter &fwdsServed_;
    sim::Counter &upgrades_;
    sim::Counter &bypassOps_;

    sim::Tracer &trc_;
    int lane_;
    /** End-to-end memory-request latency, shared per core kind
     * ("cpu"/"mttop") across all same-kind L1s via registry name
     * dedup: the aggregate plus one histogram per transaction kind. */
    sim::LatencyHistogram &latAll_;
    sim::LatencyHistogram &latHit_;
    sim::LatencyHistogram &latGetS_;
    sim::LatencyHistogram &latGetM_;
    sim::LatencyHistogram &latUpgrade_;
    sim::LatencyHistogram &latBypass_;
};

} // namespace ccsvm::coherence

#endif // CCSVM_COHERENCE_L1_CACHE_HH
