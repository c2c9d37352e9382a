#include "coherence/directory.hh"

#include <bit>
#include <cstring>

#include "base/logging.hh"
#include "coherence/cache_system.hh"

namespace ccsvm::coherence
{

Directory::Directory(const CacheSystem &sys, sim::EventQueue &eq,
                     sim::StatRegistry &stats, const std::string &name,
                     const DirConfig &cfg, int bank_id,
                     noc::NodeId node, mem::DramCtrl &dram,
                     mem::PhysMem &phys)
    : sys_(&sys), eq_(&eq), cfg_(cfg), bankId_(bank_id),
      node_(node), dram_(&dram), phys_(&phys),
      // Each bank offsets the stochastic (rand) replacer's seed by
      // its id so banks draw independent victim streams.
      array_(cfg.bankSizeBytes, cfg.assoc, cfg.replace,
             0x2545F4914F6CDD1Dull + static_cast<std::uint64_t>(bank_id)),
      getS_(stats.counter(name + ".getS", "GetS requests processed")),
      getM_(stats.counter(name + ".getM", "GetM requests processed")),
      fetches_(stats.counter(name + ".fetches",
                             "off-chip fills into the L2")),
      fetchesCoherent_(stats.counter(name + ".fetches.coherent",
                                     "off-chip fills for default-"
                                     "coherent blocks")),
      fetchesOverride_(stats.counter(name + ".fetches.override",
                                     "off-chip fills for protocol-"
                                     "override blocks")),
      writebacks_(stats.counter(name + ".writebacks",
                                "dirty L2 evictions written off-chip")),
      bypassReads_(stats.counter(name + ".bypassReads",
                                 "uncacheable bypass-region reads "
                                 "served at the home")),
      bypassWrites_(stats.counter(name + ".bypassWrites",
                                  "uncacheable bypass-region writes/"
                                  "atomics served at the home")),
      sharingWb_(stats.counter(name + ".sharingWb",
                               "dirty blocks made clean at the home "
                               "on a read (protocols without O)")),
      sharingWbCpu_(stats.counter(name + ".sharingWb.cpu",
                                  "sharingWb carried home by "
                                  "CPU-cluster requestors")),
      sharingWbMttop_(stats.counter(name + ".sharingWb.mttop",
                                    "sharingWb carried home by "
                                    "MTTOP-cluster requestors")),
      invsSentCpu_(stats.counter(name + ".invsSent.cpu",
                                 "invalidations sent to CPU-cluster "
                                 "L1s")),
      invsSentMttop_(stats.counter(name + ".invsSent.mttop",
                                   "invalidations sent to "
                                   "MTTOP-cluster L1s")),
      invsSentCoherent_(stats.counter(name + ".invsSent.coherent",
                                      "invalidations for default-"
                                      "coherent blocks")),
      invsSentOverride_(stats.counter(name + ".invsSent.override",
                                      "invalidations for protocol-"
                                      "override blocks")),
      recallsStat_(stats.counter(name + ".recalls",
                                 "inclusive-eviction recalls")),
      stalls_(stats.counter(name + ".stalls",
                            "requests stalled on busy blocks")),
      requests_(stats.counter(name + ".requests",
                              "coherence requests accepted at this "
                              "bank (incl. retries after recalls)")),
      occupancy_(stats.counter(name + ".occupancy",
                               "peak valid L2 lines (home-bank "
                               "occupancy high-water mark)")),
      conflictEvictions_(stats.counter(name + ".conflictEvictions",
                                       "recalls started to free a "
                                       "frame for an allocation")),
      conflictEvictionsCoherent_(
          stats.counter(name + ".conflictEvictions.coherent",
                        "conflict evictions whose victim was a "
                        "default-coherent line")),
      dirLat_(stats.histogram("latency.dir.bank" +
                                  std::to_string(bank_id),
                              "home-bank transaction latency, "
                              "request accepted to Unblock")),
      trc_(stats.tracer()), lane_(stats.tracer().lane(name))
{}

std::size_t
Directory::pendingWork() const
{
    return txns_.size() + recalls_.size() + stalled_.size() +
           stalledAllocs_.size();
}

std::string
Directory::describePending() const
{
    std::string out;
    char buf[128];
    for (const auto &[addr, txn] : txns_) {
        std::snprintf(buf, sizeof(buf), "txn %s addr=0x%llx req=%d; ",
                      msgTypeName(txn.req), (unsigned long long)addr,
                      txn.requestor);
        out += buf;
    }
    for (const auto &[addr, rec] : recalls_) {
        std::snprintf(buf, sizeof(buf),
                      "recall addr=0x%llx acksLeft=%d; ",
                      (unsigned long long)addr, rec.acksLeft);
        out += buf;
    }
    for (const auto &m : stalled_) {
        std::snprintf(buf, sizeof(buf),
                      "stalled %s addr=0x%llx from=%d; ",
                      msgTypeName(m.type),
                      (unsigned long long)m.blockAddr, m.sender);
        out += buf;
    }
    for (const auto &m : stalledAllocs_) {
        std::snprintf(buf, sizeof(buf),
                      "stalledAlloc %s addr=0x%llx from=%d; ",
                      msgTypeName(m.type),
                      (unsigned long long)m.blockAddr, m.sender);
        out += buf;
    }
    return out;
}

bool
Directory::probe(Addr block_addr, DirState &st, L1Id &owner,
                 unsigned &num_sharers)
{
    L2Line *line = array_.lookup(mem::blockAlign(block_addr));
    if (!line)
        return false;
    st = line->st;
    owner = line->owner;
    num_sharers = popcount(line->sharers);
    return true;
}

bool
Directory::funcReadBlock(Addr block_addr, std::uint8_t *out)
{
    L2Line *line = array_.lookup(mem::blockAlign(block_addr));
    if (!line || cfg_.memoryResident)
        return false;
    std::memcpy(out, line->data.data(), mem::blockBytes);
    return true;
}

void
Directory::funcWriteBlock(Addr block_addr, unsigned offset,
                          const void *src, unsigned len)
{
    L2Line *line = array_.lookup(mem::blockAlign(block_addr));
    if (line)
        std::memcpy(line->data.data() + offset, src, len);
}

unsigned
Directory::popcount(SharerMask m)
{
    return static_cast<unsigned>(std::popcount(m));
}

bool
Directory::isSharer(const L2Line &line, L1Id id) const
{
    return (line.sharers >> id) & 1u;
}

bool
Directory::isMttopL1(L1Id id) const
{
    return sys_->l1(id).kind() == CoreKind::Mttop;
}

const ProtocolPolicy &
Directory::clusterPolicy(L1Id id) const
{
    return sys_->l1(id).policy();
}

// ---------------------------------------------------------------------
// Dispatch and stalling
// ---------------------------------------------------------------------

void
Directory::handleMessage(CohMsg msg)
{
    // Senders route through the cache system's homeOf; a block
    // arriving anywhere else would be homed inconsistently.
    ccsvm_assert(&sys_->homeOf(msg.blockAddr) == this,
                 "block 0x%llx routed to wrong bank %d (hash %s)",
                 (unsigned long long)msg.blockAddr, bankId_,
                 sys_->hash().name());

    switch (msg.type) {
      case MsgType::GetS:
      case MsgType::GetM:
      case MsgType::PutS:
      case MsgType::PutOwned:
      case MsgType::Bypass: {
        ++requests_;
        L2Line *line = array_.lookup(msg.blockAddr);
        if (line && line->busy) {
            ++stalls_;
            stalled_.push_back(std::move(msg));
            return;
        }
        processRequest(msg);
        return;
      }
      case MsgType::Unblock:
        processUnblock(msg);
        return;
      case MsgType::RecallAck:
      case MsgType::RecallData:
        processRecallResponse(msg);
        return;
      default:
        ccsvm_panic("directory bank %d received unexpected %s", bankId_,
                    msgTypeName(msg.type));
    }
}

void
Directory::processRequest(CohMsg &msg)
{
    L2Line *line = array_.lookup(msg.blockAddr);
    switch (msg.type) {
      case MsgType::GetS:
        ++getS_;
        processGetS(msg, line);
        return;
      case MsgType::GetM:
        ++getM_;
        processGetM(msg, line);
        return;
      case MsgType::PutS:
        processPutS(msg, line);
        return;
      case MsgType::PutOwned:
        processPutOwned(msg, line);
        return;
      case MsgType::Bypass:
        processBypass(msg, line);
        return;
      default:
        ccsvm_panic("unreachable");
    }
}

void
Directory::retryStalled(Addr block_addr)
{
    for (std::size_t i = 0; i < stalled_.size();) {
        if (stalled_[i].blockAddr != block_addr) {
            ++i;
            continue;
        }
        L2Line *line = array_.lookup(block_addr);
        if (line && line->busy)
            return; // reprocessing blocked again; stop
        const auto pos = stalled_.begin() + static_cast<std::ptrdiff_t>(i);
        CohMsg msg = std::move(*pos);
        stalled_.erase(pos);
        processRequest(msg);
        // Processing can retry or stall other requests: rescan. The
        // block's older requests are gone, so the next match is its
        // oldest left.
        i = 0;
    }
}

void
Directory::retryStalledAllocs()
{
    if (stalledAllocs_.empty())
        return;
    std::vector<CohMsg> pending;
    pending.swap(stalledAllocs_);
    for (auto &msg : pending)
        handleMessage(std::move(msg));
}

// ---------------------------------------------------------------------
// GetS / GetM
// ---------------------------------------------------------------------

Directory::Txn &
Directory::openTxn(L2Line &line, const CohMsg &msg)
{
    line.busy = true;
    line.region = msg.region;
    Txn &txn = txns_.emplace(msg.blockAddr);
    txn = {.req = msg.type, .requestor = msg.sender,
           .startTick = eq_->now()};
    return txn;
}

void
Directory::processGetS(CohMsg &msg, L2Line *line)
{
    if (!line) {
        allocateAndFetch(std::move(msg));
        return;
    }

    Txn &txn = openTxn(*line, msg);
    array_.touch(line);

    if (line->st == DirState::S) {
        CohMsg rsp;
        rsp.blockAddr = msg.blockAddr;
        rsp.hasData = true;
        rsp.data = line->data;
        if (line->sharers == 0 && line->owner == noL1) {
            // No cached copies anywhere: grant the best read state
            // the requestor's protocol offers (E under MESI/MOESI,
            // S under MSI) — the region's override protocol when the
            // page carries one, else the requestor's cluster policy.
            rsp.type = policyFor(line->region, clusterPolicy(msg.sender))
                           .soleCopyFill();
        } else {
            rsp.type = MsgType::DataS;
        }
        serveData(msg.sender, std::move(rsp));
        return;
    }

    // X or O: data must come from the owner.
    ccsvm_assert(line->owner != noL1, "ownerless %s state",
                 dirStateName(line->st));
    ccsvm_assert(line->owner != msg.sender,
                 "owner L1 %d re-requesting GetS", msg.sender);
    txn.forwarded = true;
    txn.oldOwner = line->owner;

    CohMsg fwd;
    fwd.type = MsgType::FwdGetS;
    fwd.blockAddr = msg.blockAddr;
    fwd.requestor = msg.sender;
    // Pair-wise mediation: the owner may keep a dirty copy (O) only
    // when both its cluster and the requestor's have the O state;
    // otherwise it downgrades and the requestor carries dirty data
    // home on its Unblock. A protocol-override region binds both
    // ends to the region protocol instead.
    fwd.allowDirtySharing = pairAllowsDirtySharing(
        policyFor(line->region, clusterPolicy(line->owner)),
        policyFor(line->region, clusterPolicy(msg.sender)));
    sendToL1(line->owner, std::move(fwd), cfg_.ctrlLatency);
}

void
Directory::processGetM(CohMsg &msg, L2Line *line)
{
    if (!line) {
        allocateAndFetch(std::move(msg));
        return;
    }

    Txn &txn = openTxn(*line, msg);
    array_.touch(line);

    const L1Id req = msg.sender;
    ccsvm_assert(line->st == DirState::S || line->owner != noL1,
                 "ownerless %s state", dirStateName(line->st));
    ccsvm_assert(line->owner != req || line->st == DirState::O,
                 "X-owner L1 %d re-requesting GetM", req);

    // Every other sharer acks the requestor; the owner (X or O) is
    // never listed as a sharer.
    CohMsg rsp;
    rsp.blockAddr = msg.blockAddr;
    rsp.requestor = req;
    rsp.ackCount = static_cast<std::uint8_t>(
        popcount(line->sharers) - (isSharer(*line, req) ? 1 : 0));
    if (line->owner != noL1 && line->owner != req) {
        // Another L1 owns the block: it supplies the data.
        txn.forwarded = true;
        txn.oldOwner = line->owner;
        rsp.type = MsgType::FwdGetM;
        sendToL1(line->owner, std::move(rsp), cfg_.ctrlLatency);
    } else if (line->owner == req || isSharer(*line, req)) {
        // The requestor holds the data (a sharer, or the O owner
        // upgrading): grant write permission without it.
        rsp.type = MsgType::GrantM;
        sendToL1(req, std::move(rsp), cfg_.ctrlLatency);
    } else {
        rsp.type = MsgType::DataM;
        rsp.hasData = true;
        rsp.data = line->data;
        serveData(req, std::move(rsp));
    }
    sendInvs(*line, req, req);
    line->sharers = 0;
}

void
Directory::sendInvs(L2Line &line, L1Id skip, L1Id ack_dest)
{
    for (L1Id id = 0; id < sys_->numL1s(); ++id) {
        if (id == skip || !isSharer(line, id))
            continue;
        CohMsg inv;
        inv.type = MsgType::Inv;
        inv.blockAddr = line.addr;
        inv.requestor = ack_dest;
        ++(isMttopL1(id) ? invsSentMttop_ : invsSentCpu_);
        ++(line.region.attr == RegionAttr::ProtocolOverride
               ? invsSentOverride_
               : invsSentCoherent_);
        sendToL1(id, std::move(inv), cfg_.ctrlLatency);
    }
}

// ---------------------------------------------------------------------
// Puts
// ---------------------------------------------------------------------

void
Directory::sendPutAck(Addr block_addr, L1Id dst)
{
    CohMsg ack;
    ack.type = MsgType::PutAck;
    ack.blockAddr = block_addr;
    sendToL1(dst, std::move(ack), cfg_.ctrlLatency);
}

void
Directory::serveData(L1Id dst, CohMsg msg)
{
    if (!cfg_.memoryResident) {
        sendToL1(dst, std::move(msg), cfg_.l2DataLatency);
        return;
    }
    // Directory-at-memory: the payload comes from DRAM (counted).
    dram_->access(false, mem::blockBytes,
                  [this, dst, msg = std::move(msg)]() mutable {
                      sendToL1(dst, std::move(msg), cfg_.ctrlLatency);
                  });
}

void
Directory::processPutS(CohMsg &msg, L2Line *line)
{
    // A put can be stale (the block was recalled or ownership moved
    // while the put was in flight); ack unconditionally so the L1 can
    // retire its victim buffer.
    if (line)
        line->sharers &= ~(1u << msg.sender);
    sendPutAck(msg.blockAddr, msg.sender);
}

void
Directory::absorbDirtyData(L2Line &line, const CohMsg &msg)
{
    ccsvm_assert(msg.hasData, "dirty %s without data",
                 msgTypeName(msg.type));
    line.data = msg.data;
    if (cfg_.memoryResident) {
        // No shared data cache: flush straight to DRAM.
        ++writebacks_;
        phys_->writeBlock(msg.blockAddr, msg.data.data());
        dram_->access(true, mem::blockBytes, [] {});
    } else {
        line.dirty = true;
    }
}

void
Directory::processPutOwned(CohMsg &msg, L2Line *line)
{
    const bool current_owner = line && line->st != DirState::S &&
                               line->owner == msg.sender;
    if (current_owner) {
        if (msg.dirty)
            absorbDirtyData(*line, msg);
        // A clean PutOwned (E, unmodified) leaves L2 data and dirty
        // flag untouched: the L2 copy was already current.
        line->owner = noL1;
        line->st = DirState::S;
    } else if (line) {
        // Stale put: ownership moved while it was in flight. If a
        // forward raced the eviction, the Unblock re-listed the
        // sender as a sharer — but a PutOwned means it dropped the
        // block entirely, so clear the bit or a later Inv would
        // target an L1 that holds nothing. (The sender cannot have
        // re-acquired the block: it blocks new requests until our
        // PutAck retires its victim buffer.)
        line->sharers &= ~(1u << msg.sender);
    }
    sendPutAck(msg.blockAddr, msg.sender);
}

// ---------------------------------------------------------------------
// Bypass-region ops (uncacheable, performed at the home)
// ---------------------------------------------------------------------

void
Directory::processBypass(CohMsg &msg, L2Line *line)
{
    const ScalarOp op = msg.bypass.op;
    const unsigned off = msg.bypass.reqOffset;
    ccsvm_assert(op.size > 0 && op.size <= 8 &&
                     off + op.size <= mem::blockBytes,
                 "malformed bypass op: off=%u size=%u", off, op.size);
    // A bypass region is never cached: its attribute covers every
    // access to its pages, so no L1 can hold a copy. Catch misuse
    // (e.g. a region added after its pages were already cached)
    // before it turns into silent incoherence.
    ccsvm_assert(!line || (line->owner == noL1 && line->sharers == 0),
                 "bypass op to block 0x%llx still cached by L1s",
                 (unsigned long long)msg.blockAddr);

    ++(op.writes() ? bypassWrites_ : bypassReads_);

    // Capture only scalars: the DRAM path below nests this closure
    // in std::function completions, whose 16-byte buffer holds no
    // 80-byte CohMsg, so capturing the message would put a heap
    // allocation on every uncached op of a bypass-heavy sweep.
    const L1Id requestor = msg.sender;
    const Addr block = msg.blockAddr;
    const std::uint64_t id = msg.bypass.bypassId;
    auto respond = [this, requestor, block, id](std::uint64_t v,
                                                Tick latency) {
        CohMsg rsp;
        rsp.type = MsgType::BypassResp;
        rsp.blockAddr = block;
        rsp.setBypass({.bypassId = id, .op = {.wdata = v}});
        sendToL1(requestor, std::move(rsp), latency);
    };

    if (line && !cfg_.memoryResident) {
        // Resident L2 copy: the op runs against it at L2 latency. A
        // write leaves the line dirty; the normal recall/writeback
        // path flushes it off-chip eventually.
        array_.touch(line);
        const std::uint64_t v = op.applyTo(line->data.data() + off);
        if (op.writes())
            line->dirty = true;
        respond(v, cfg_.l2DataLatency);
        return;
    }

    // No resident copy (or a directory-at-memory bank, whose data
    // always lives off-chip): the op is one DRAM read or write, or
    // for an atomic a read then a write, like the APU's uncached
    // atomics. PhysMem is authoritative here — nothing caches a
    // bypass block — and the op is applied inside the DRAM callback
    // so racing bypass ops to the same word serialize in event order.
    // The resident-but-memory-resident line copy (kept current by the
    // fetch path) is patched too so later serveData calls see the
    // write.
    const Addr pa = block + off;
    dram_->access(op.kind == ScalarOp::Kind::Write, mem::blockBytes,
                  [this, block, pa, off, op, respond] {
        const std::uint64_t v = op.applyTo(*phys_, pa);
        if (op.writes()) {
            if (L2Line *l = array_.lookup(block))
                phys_->read(pa, l->data.data() + off, op.size);
        }
        if (op.kind != ScalarOp::Kind::Amo) {
            respond(v, cfg_.ctrlLatency);
            return;
        }
        dram_->access(true, mem::blockBytes,
                      [v, respond] { respond(v, 0); });
    });
}

// ---------------------------------------------------------------------
// Unblock
// ---------------------------------------------------------------------

void
Directory::processUnblock(CohMsg &msg)
{
    auto it = txns_.find(msg.blockAddr);
    ccsvm_assert(it != txns_.end(),
                 "Unblock for idle block 0x%llx",
                 (unsigned long long)msg.blockAddr);
    const Txn txn = it->second;
    txns_.erase(it);

    // The home-side view of the transaction: accept to Unblock.
    dirLat_.record(eq_->now() - txn.startTick);
    if (trc_.enabled(sim::traceCoh))
        trc_.complete(sim::traceCoh, lane_,
                      txn.req == MsgType::GetM ? "dir.GetM"
                                               : "dir.GetS",
                      txn.startTick, eq_->now(), msg.blockAddr);

    L2Line *line = array_.lookup(msg.blockAddr);
    ccsvm_assert(line && line->busy, "Unblock for non-busy line");

    if (txn.req == MsgType::GetM) {
        line->st = DirState::X;
        line->owner = txn.requestor;
        line->sharers = 0;
    } else if (txn.forwarded) {
        if (msg.ownerDirty) {
            // Old owner kept a dirty copy: Owned state. Only
            // reachable when this directory offered dirty sharing to
            // the pair, i.e. both clusters have O.
            ccsvm_assert(
                pairAllowsDirtySharing(
                    policyFor(line->region, clusterPolicy(txn.oldOwner)),
                    policyFor(line->region,
                              clusterPolicy(txn.requestor))),
                "dirty-shared Unblock under a pair without O");
            line->st = DirState::O;
            line->owner = txn.oldOwner;
            line->sharers |= 1u << txn.requestor;
        } else {
            if (msg.hasData && msg.dirty) {
                // No dirty sharing for this pair: the requestor
                // carried the old owner's dirty data home; the line
                // becomes clean-shared. Charge the writeback to the
                // cluster that performed it (the requestor's).
                ++sharingWb_;
                ++(isMttopL1(txn.requestor) ? sharingWbMttop_
                                            : sharingWbCpu_);
                absorbDirtyData(*line, msg);
            }
            // The old owner downgraded to S (it was E-clean, or its
            // dirty data just came home); the L2 data is current.
            line->st = DirState::S;
            line->owner = noL1;
            line->sharers |= 1u << txn.oldOwner;
            line->sharers |= 1u << txn.requestor;
        }
    } else {
        // GetS served from the L2.
        if (msg.finalState == CohState::E) {
            line->st = DirState::X;
            line->owner = txn.requestor;
            line->sharers = 0;
        } else {
            line->sharers |= 1u << txn.requestor;
        }
    }

    line->busy = false;
    retryStalled(msg.blockAddr);
    retryStalledAllocs();
}

// ---------------------------------------------------------------------
// Allocation, fetch, and inclusive-eviction recall
// ---------------------------------------------------------------------

void
Directory::allocateAndFetch(CohMsg msg)
{
    L2Line *line = array_.allocate(msg.blockAddr);
    if (!line) {
        L2Line *victim = array_.findVictim(
            msg.blockAddr,
            [](const L2Line &l) { return !l.busy; });
        if (!victim) {
            stalledAllocs_.push_back(std::move(msg));
            return;
        }
        startRecall(victim, std::move(msg));
        return;
    }

    // A fresh line is clean and S with no holders (L2Line defaults).
    openTxn(*line, msg);
    if (++occLevel_ > occPeak_) {
        occupancy_ += occLevel_ - occPeak_;
        occPeak_ = occLevel_;
    }

    ++fetches_;
    ++(msg.region.attr == RegionAttr::ProtocolOverride
           ? fetchesOverride_
           : fetchesCoherent_);
    const Addr addr = msg.blockAddr;
    const L1Id requestor = msg.sender;
    const bool want_m = msg.type == MsgType::GetM;
    const ProtocolPolicy *req_policy =
        &policyFor(msg.region, clusterPolicy(requestor));

    dram_->access(false, mem::blockBytes, [this, addr, requestor,
                                           want_m, req_policy] {
        L2Line *l = array_.lookup(addr);
        ccsvm_assert(l && l->busy, "fetched line vanished");
        phys_->readBlock(addr, l->data.data());

        CohMsg rsp;
        rsp.blockAddr = addr;
        rsp.hasData = true;
        rsp.data = l->data;
        // Fresh from memory: nobody else holds it; a read fill gets
        // the best state the requestor's (region or cluster) protocol
        // offers.
        rsp.type = want_m ? MsgType::DataM : req_policy->soleCopyFill();
        rsp.ackCount = 0;
        sendToL1(requestor, std::move(rsp), cfg_.l2DataLatency);
    });
}

void
Directory::startRecall(L2Line *victim, CohMsg pending_msg)
{
    ++recallsStat_;
    ++conflictEvictions_;
    if (victim->region.attr == RegionAttr::Coherent)
        ++conflictEvictionsCoherent_;
    victim->busy = true;

    Recall &rec = recalls_.emplace(victim->addr);
    rec.pendingReq = std::move(pending_msg);
    rec.acksLeft = static_cast<int>(popcount(victim->sharers));

    if (victim->st != DirState::S) {
        ccsvm_assert(victim->owner != noL1, "ownerless recall");
        ++rec.acksLeft;
        CohMsg recall;
        recall.type = MsgType::Recall;
        recall.blockAddr = victim->addr;
        sendToL1(victim->owner, std::move(recall), cfg_.ctrlLatency);
    }
    // Invalidate all sharers with acks routed back here.
    sendInvs(*victim, noL1, noL1);
    victim->sharers = 0;
    victim->owner = noL1;

    if (rec.acksLeft == 0)
        finishRecall(victim->addr);
}

void
Directory::processRecallResponse(CohMsg &msg)
{
    auto it = recalls_.find(msg.blockAddr);
    ccsvm_assert(it != recalls_.end(),
                 "%s without recall in flight", msgTypeName(msg.type));
    Recall &rec = it->second;

    if (msg.type == MsgType::RecallData && msg.dirty) {
        L2Line *line = array_.lookup(msg.blockAddr);
        ccsvm_assert(line, "recalled line vanished");
        line->data = msg.data;
        line->dirty = true;
    }
    if (--rec.acksLeft == 0)
        finishRecall(msg.blockAddr);
}

void
Directory::finishRecall(Addr victim_addr)
{
    auto it = recalls_.find(victim_addr);
    ccsvm_assert(it != recalls_.end(), "finishRecall without recall");
    CohMsg pending = std::move(it->second.pendingReq);
    recalls_.erase(it);

    L2Line *line = array_.lookup(victim_addr);
    ccsvm_assert(line && line->busy, "recalled line not busy");

    if (line->dirty) {
        ++writebacks_;
        // Functional write happens now; the DRAM model charges timing
        // and counts the off-chip transaction.
        phys_->writeBlock(victim_addr, line->data.data());
        dram_->access(true, mem::blockBytes, [] {});
    }
    array_.invalidate(line);
    ccsvm_assert(occLevel_ > 0, "occupancy underflow");
    --occLevel_;

    // Any puts stalled on the victim are now stale; let them retire.
    retryStalled(victim_addr);

    // Process the allocation that triggered the recall.
    handleMessage(std::move(pending));
}

// ---------------------------------------------------------------------
// Messaging helper
// ---------------------------------------------------------------------

void
Directory::sendToL1(L1Id dst, CohMsg msg, Tick extra_latency)
{
    sys_->send(node_, dst, std::move(msg), *eq_, extra_latency);
}

} // namespace ccsvm::coherence
