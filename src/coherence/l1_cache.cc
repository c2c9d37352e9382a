#include "coherence/l1_cache.hh"

#include <cstring>
#include <utility>

#include "base/logging.hh"
#include "coherence/cache_system.hh"

namespace ccsvm::coherence
{

namespace
{

/** A kind-wide latency histogram name ("latency.cpu.mem"): every L1
 * of one core kind records into the same family. */
std::string
latencyName(CoreKind kind, const char *suffix)
{
    return std::string("latency.") + coreKindName(kind) + suffix;
}

/** True if a line in @p s may perform @p op now: a store or an
 * atomic needs write permission, a load any valid copy. */
bool
permits(CohState s, const ScalarOp &op)
{
    return op.writes() ? canWrite(s) : canRead(s);
}

/** True if @p s makes the L1 the block's owner (E, M or O): it
 * answers forwards and recalls with data. */
bool
owns(CohState s)
{
    return s == CohState::E || s == CohState::M || s == CohState::O;
}

} // namespace

L1Controller::L1Controller(const CacheSystem &sys,
                           const L1Cluster &cluster,
                           sim::StatRegistry &stats,
                           const std::string &name, L1Id id,
                           noc::NodeId node, SwmrMonitor *monitor)
    : sys_(&sys), eq_(cluster.queue), cfg_(cluster.cfg),
      kind_(cluster.kind), policy_(&protocolPolicy(cluster.protocol)),
      id_(id), node_(node),
      monitor_(monitor), array_(cfg_.sizeBytes, cfg_.assoc),
      hits_(stats.counter(name + ".hits", "L1 accesses hitting")),
      misses_(stats.counter(name + ".misses", "L1 accesses missing")),
      evictions_(stats.counter(name + ".evictions", "L1 evictions")),
      invsReceived_(stats.counter(name + ".invs",
                                  "invalidations received")),
      fwdsServed_(stats.counter(name + ".fwds",
                                "cache-to-cache transfers supplied")),
      upgrades_(stats.counter(name + ".upgrades",
                              "S/O-to-M upgrade transactions")),
      bypassOps_(stats.counter(name + ".bypassOps",
                               "bypass-region ops sent uncached to "
                               "the home")),
      trc_(stats.tracer()), lane_(stats.tracer().lane(name)),
      latAll_(stats.histogram(
          latencyName(cluster.kind, ".mem"),
          "end-to-end memory-request latency, all transactions")),
      latHit_(stats.histogram(latencyName(cluster.kind, ".hit"),
                              "latency of L1 hits")),
      latGetS_(stats.histogram(
          latencyName(cluster.kind, ".getS"),
          "latency of requests resolved by a GetS miss")),
      latGetM_(stats.histogram(
          latencyName(cluster.kind, ".getM"),
          "latency of requests resolved by a GetM miss")),
      latUpgrade_(stats.histogram(
          latencyName(cluster.kind, ".upgrade"),
          "latency of requests resolved by an upgrade")),
      latBypass_(stats.histogram(
          latencyName(cluster.kind, ".bypass"),
          "latency of uncached bypass-region ops"))
{}

void
L1Controller::setLineState(Line &line, CohState s)
{
    line.state = s;
    if (monitor_)
        monitor_->onSetState(id_, line.addr, s);
}

void
L1Controller::dropLine(Line *line)
{
    if (monitor_)
        monitor_->onDrop(id_, line->addr);
    array_.invalidate(line);
}

CohState
L1Controller::stateOf(Addr block_addr)
{
    Line *line = array_.lookup(mem::blockAlign(block_addr));
    return line ? line->state : CohState::I;
}

L1Controller::Line *
L1Controller::copyOf(Addr block_addr)
{
    if (Line *line = array_.lookup(block_addr))
        return line;
    auto ev = evicts_.find(block_addr);
    return ev == evicts_.end() ? nullptr : &ev->second.line;
}

L1Controller::Line &
L1Controller::held(const CohMsg &msg)
{
    Line *copy = copyOf(msg.blockAddr);
    ccsvm_assert(copy, "%s for block 0x%llx not held by L1 %d",
                 msgTypeName(msg.type),
                 (unsigned long long)msg.blockAddr, id_);
    return *copy;
}

// ---------------------------------------------------------------------
// Core-side access path
// ---------------------------------------------------------------------

std::uint64_t
L1Controller::performOp(Line &line, MemRequest &req)
{
    const unsigned off = static_cast<unsigned>(
        req.paddr & mem::blockOffsetMask);
    ccsvm_assert(off + req.op.size <= mem::blockBytes,
                 "access crosses block boundary pa=0x%llx size=%u",
                 (unsigned long long)req.paddr, req.op.size);
    ccsvm_assert(permits(line.state, req.op),
                 "%s without permission in %s",
                 req.op.writes() ? "write" : "read",
                 cohStateName(line.state));

    const std::uint64_t v = req.op.applyTo(line.data.data() + off);
    if (req.op.writes() && line.state == CohState::E)
        setLineState(line, CohState::M);
    return v;
}

void
L1Controller::completeOp(MemRequest &req, std::uint64_t value)
{
    // The hit latency models the L1 access pipeline; misses already
    // paid the protocol latency on top.
    eq_->scheduleIn(cfg_.hitLatency, [&req, value] {
        auto done = std::move(req.onDone);
        done(value);
    });
}

void
L1Controller::recordLatency(sim::LatencyHistogram &h,
                            const MemRequest &req)
{
    // completeOp charges hitLatency after now; issueTick is the first
    // access() for the request, so this spans coalescing, overflow
    // queueing and eviction waits too.
    const std::uint64_t lat =
        (eq_->now() - req.issueTick) + cfg_.hitLatency;
    h.record(lat);
    latAll_.record(lat);
}

void
L1Controller::access(MemRequest &req)
{
    // First presentation of this request (retries via PutAck waiters
    // or the overflow queue keep the original stamp).
    if (req.issueTick == MemRequest::notIssued)
        req.issueTick = eq_->now();

    if (req.region.attr == RegionAttr::Bypass) {
        // Bypass regions are never cached, so the block cannot be in
        // the array, the victim buffer or an MSHR; the op goes
        // straight to the home node as an uncacheable access.
        ++bypassOps_;
        issueBypass(req);
        return;
    }

    const Addr block = mem::blockAlign(req.paddr);

    // Block mid-eviction: wait for the PutAck, then retry.
    if (auto ev = evicts_.find(block); ev != evicts_.end()) {
        ev->second.waiters.push(req);
        return;
    }

    Line *line = array_.lookup(block);
    if (line && permits(line->state, req.op)) {
        ++hits_;
        array_.touch(line);
        const std::uint64_t v = performOp(*line, req);
        recordLatency(latHit_, req);
        completeOp(req, v);
        return;
    }

    ++misses_;
    if (auto it = mshrs_.find(block); it != mshrs_.end()) {
        // Coalesce into the outstanding transaction.
        it->second.ops.push(req);
        return;
    }
    if (mshrs_.size() >= cfg_.maxMshrs) {
        overflow_.push(req);
        return;
    }

    MshrEntry &entry = mshrs_.emplace(block);
    entry.blockAddr = block;
    entry.wantM = req.op.writes();
    entry.region = req.region;
    entry.startTick = eq_->now();
    if (entry.wantM && line) {
        ++upgrades_;
        entry.upgrade = true;
    }
    entry.ops.push(req);
    startTransaction(entry);
}

void
L1Controller::issueBypass(MemRequest &req)
{
    const Addr block = mem::blockAlign(req.paddr);
    CohMsg msg;
    msg.type = MsgType::Bypass;
    msg.blockAddr = block;
    msg.sender = id_;
    msg.requestor = id_;
    msg.setBypass({.bypassId = nextBypassId_++,
                   .reqOffset = static_cast<unsigned>(req.paddr - block),
                   .op = req.op});
    bypassPending_.emplace(msg.bypass.bypassId) = &req;
    sendToDir(std::move(msg));
}

void
L1Controller::handleBypassResp(CohMsg &msg)
{
    auto it = bypassPending_.find(msg.bypass.bypassId);
    ccsvm_assert(it != bypassPending_.end(),
                 "BypassResp id %llu without pending op at L1 %d",
                 (unsigned long long)msg.bypass.bypassId, id_);
    MemRequest &req = *it->second;
    bypassPending_.erase(it);
    recordLatency(latBypass_, req);
    if (trc_.enabled(sim::traceCoh))
        trc_.complete(sim::traceCoh, lane_, "Bypass", req.issueTick,
                      eq_->now(), msg.blockAddr);
    completeOp(req, msg.bypass.op.wdata);
}

void
L1Controller::startTransaction(MshrEntry &entry)
{
    entry.issued = true;
    entry.dataReceived = false;
    entry.granted = false;
    entry.acksExpected = -1;
    entry.acksReceived = 0;
    entry.fillState = CohState::I;
    entry.fillDirty = false;
    entry.fillOwnerRetained = false;
    entry.unblockSent = false;

    CohMsg msg;
    msg.type = entry.wantM ? MsgType::GetM : MsgType::GetS;
    msg.blockAddr = entry.blockAddr;
    msg.sender = id_;
    msg.requestor = id_;
    msg.region = entry.region;
    sendToDir(std::move(msg));
}

// ---------------------------------------------------------------------
// Fill / completion path
// ---------------------------------------------------------------------

void
L1Controller::tryComplete(MshrEntry &entry)
{
    const bool have_block = entry.dataReceived || entry.granted;
    const bool have_acks =
        entry.acksExpected >= 0 &&
        entry.acksReceived == entry.acksExpected;
    if (have_block && have_acks)
        finalizeFill(entry);
}

L1Controller::Line *
L1Controller::installLine(Addr block_addr)
{
    Line *line = array_.allocate(block_addr);
    if (line)
        return line;

    // Evict the LRU line that has no transaction in flight.
    Line *victim = array_.findVictim(
        block_addr, [this](const Line &l) {
            return !mshrs_.contains(l.addr);
        });
    if (!victim)
        return nullptr; // all ways busy upgrading: stall this fill
    evictLine(victim);
    line = array_.allocate(block_addr);
    ccsvm_assert(line, "allocation must succeed after eviction");
    return line;
}

void
L1Controller::evictLine(Line *line)
{
    ++evictions_;
    const Addr addr = line->addr;
    ccsvm_assert(!evicts_.contains(addr),
                 "double eviction of block 0x%llx",
                 (unsigned long long)addr);

    EvictEntry &ev = evicts_.emplace(addr);
    ev.line = *line;
    ev.line.valid = false;

    CohMsg msg;
    msg.blockAddr = addr;
    msg.sender = id_;
    if (line->state == CohState::S) {
        msg.type = MsgType::PutS;
    } else {
        msg.type = MsgType::PutOwned;
        const bool dirty = line->state == CohState::M ||
                           line->state == CohState::O;
        msg.dirty = dirty;
        if (dirty) {
            msg.hasData = true;
            msg.data = line->data;
        }
    }
    dropLine(line);
    sendToDir(std::move(msg));
}

void
L1Controller::finalizeFill(MshrEntry &entry)
{
    const Addr addr = entry.blockAddr;
    Line *line = array_.lookup(addr);

    if (!line) {
        line = installLine(addr);
        if (!line) {
            // No frame free; retried when a transaction completes.
            stalledFills_.push_back(addr);
            return;
        }
    }

    line->region = entry.region;
    if (entry.dataReceived) {
        line->data = entry.data;
        setLineState(*line, entry.fillState);
    } else {
        // Dataless GrantM: we kept our S/O data.
        ccsvm_assert(entry.granted, "fill without data or grant");
        setLineState(*line, CohState::M);
    }
    array_.touch(line);

    if (!entry.unblockSent) {
        entry.unblockSent = true;
        CohMsg ub;
        ub.type = MsgType::Unblock;
        ub.blockAddr = addr;
        ub.sender = id_;
        ub.requestor = id_;
        ub.finalState = line->state;
        ub.ownerDirty = entry.fillOwnerRetained;
        if (entry.fillDirty && !entry.fillOwnerRetained) {
            // The owner downgraded instead of keeping O (its cluster
            // or ours lacks dirty sharing): the dirty data must be
            // made clean at the home node, whatever our own protocol.
            // The directory holds the block busy until this Unblock
            // lands, so no request can read the stale L2 copy in the
            // window.
            ub.hasData = true;
            ub.dirty = true;
            ub.data = line->data;
        }
        sendToDir(std::move(ub));
    }

    replayOps(entry, line);
}

void
L1Controller::replayOps(MshrEntry &entry, Line *line)
{
    while (!entry.ops.empty()) {
        MemRequest &req = *entry.ops.head;
        if (!permits(line->state, req.op)) {
            // A store coalesced behind a GetS fill: upgrade.
            entry.wantM = true;
            ++upgrades_;
            entry.upgrade = true;
            startTransaction(entry);
            return;
        }
        const std::uint64_t v = performOp(*line, req);
        entry.ops.pop();
        recordLatency(entry.upgrade ? latUpgrade_
                      : entry.wantM ? latGetM_
                                    : latGetS_,
                      req);
        completeOp(req, v);
    }

    if (trc_.enabled(sim::traceCoh))
        trc_.complete(sim::traceCoh, lane_,
                      entry.upgrade ? "Upg"
                      : entry.wantM ? "GetM"
                                    : "GetS",
                      entry.startTick, eq_->now(), entry.blockAddr);
    mshrs_.erase(entry.blockAddr);
    retryStalledFills();
    drainOverflow();
}

void
L1Controller::retryStalledFills()
{
    if (stalledFills_.empty())
        return;
    std::vector<Addr> pending;
    pending.swap(stalledFills_);
    for (Addr addr : pending) {
        auto it = mshrs_.find(addr);
        ccsvm_assert(it != mshrs_.end(), "stalled fill lost its MSHR");
        finalizeFill(it->second);
    }
}

void
L1Controller::drainOverflow()
{
    while (!overflow_.empty() && mshrs_.size() < cfg_.maxMshrs)
        access(overflow_.pop());
}

// ---------------------------------------------------------------------
// Network-side handlers
// ---------------------------------------------------------------------

void
L1Controller::handleMessage(CohMsg msg)
{
    switch (msg.type) {
      case MsgType::FwdGetS:
        handleFwdGetS(msg);
        break;
      case MsgType::FwdGetM:
        handleFwdGetM(msg);
        break;
      case MsgType::Inv:
        handleInv(msg);
        break;
      case MsgType::Recall:
        handleRecall(msg);
        break;
      case MsgType::DataS:
      case MsgType::DataE:
      case MsgType::DataM:
      case MsgType::GrantM:
        handleData(msg);
        break;
      case MsgType::InvAck:
        handleInvAck(msg);
        break;
      case MsgType::PutAck:
        handlePutAck(msg);
        break;
      case MsgType::BypassResp:
        handleBypassResp(msg);
        break;
      default:
        ccsvm_panic("L1 %d received unexpected %s", id_,
                    msgTypeName(msg.type));
    }
}

void
L1Controller::handleFwdGetS(CohMsg &msg)
{
    ++fwdsServed_;
    Line &copy = held(msg);
    ccsvm_assert(owns(copy.state), "FwdGetS to non-owner in %s",
                 cohStateName(copy.state));
    // The directory's pair-wise verdict rides on the forward: with
    // dirty sharing a dirty owner keeps the block in O; without it
    // (and for a clean E owner) it downgrades to S, and the requestor
    // carries the dirty data home on its Unblock.
    const CohState next =
        ownerStateOnFwdGetS(copy.state, msg.allowDirtySharing);
    ccsvm_assert(next != CohState::O ||
                     policyFor(copy.region, *policy_)
                         .allowsDirtySharing(),
                 "L1 %d offered O but this block's protocol (%s) "
                 "lacks it (L1/directory protocol mismatch?)",
                 id_, policyFor(copy.region, *policy_).name());

    CohMsg rsp;
    rsp.type = MsgType::DataS;
    rsp.blockAddr = msg.blockAddr;
    rsp.sender = id_;
    rsp.hasData = true;
    rsp.data = copy.data;
    rsp.dirty = copy.state != CohState::E;
    rsp.ownerRetained = next == CohState::O;
    // A victim copy keeps its state: under dirty sharing the directory
    // re-lists us as the O owner and our in-flight PutOwned retires as
    // a stale put.
    if (copy.valid)
        setLineState(copy, next);
    sys_->send(node_, msg.requestor, std::move(rsp));
}

void
L1Controller::handleFwdGetM(CohMsg &msg)
{
    ++fwdsServed_;
    Line &copy = held(msg);
    ccsvm_assert(owns(copy.state), "FwdGetM to non-owner in %s",
                 cohStateName(copy.state));
    CohMsg rsp;
    rsp.type = MsgType::DataM;
    rsp.blockAddr = msg.blockAddr;
    rsp.sender = id_;
    rsp.hasData = true;
    rsp.data = copy.data;
    rsp.ackCount = msg.ackCount;
    if (copy.valid)
        dropLine(&copy);
    sys_->send(node_, msg.requestor, std::move(rsp));
}

void
L1Controller::handleInv(CohMsg &msg)
{
    ++invsReceived_;
    Line &copy = held(msg);
    if (copy.valid) {
        ccsvm_assert(copy.state == CohState::S, "Inv in state %s",
                     cohStateName(copy.state));
        // If we were upgrading this block (SM), we lost our data; the
        // directory will necessarily answer our GetM with DataM.
        dropLine(&copy);
    }
    // A victim copy's put is in flight: ack now, and the stale put is
    // acknowledged later.
    CohMsg ack;
    ack.blockAddr = msg.blockAddr;
    ack.sender = id_;
    if (msg.requestor == noL1) {
        // Recall-driven invalidation: ack the directory.
        ack.type = MsgType::RecallAck;
        sendToDir(std::move(ack));
    } else {
        ack.type = MsgType::InvAck;
        sys_->send(node_, msg.requestor, std::move(ack));
    }
}

void
L1Controller::handleRecall(CohMsg &msg)
{
    Line &copy = held(msg);
    CohMsg rsp;
    rsp.blockAddr = msg.blockAddr;
    rsp.sender = id_;
    if (copy.state == CohState::S) {
        rsp.type = MsgType::RecallAck;
    } else {
        rsp.type = MsgType::RecallData;
        rsp.hasData = true;
        rsp.data = copy.data;
        rsp.dirty = copy.state != CohState::E;
    }
    if (copy.valid)
        dropLine(&copy);
    sendToDir(std::move(rsp));
}

void
L1Controller::handleData(CohMsg &msg)
{
    auto it = mshrs_.find(msg.blockAddr);
    ccsvm_assert(it != mshrs_.end(),
                 "%s for block 0x%llx without MSHR at L1 %d",
                 msgTypeName(msg.type),
                 (unsigned long long)msg.blockAddr, id_);
    MshrEntry &entry = it->second;

    switch (msg.type) {
      case MsgType::DataS:
        entry.dataReceived = true;
        entry.data = msg.data;
        entry.fillState = CohState::S;
        entry.fillDirty = msg.dirty;
        entry.fillOwnerRetained = msg.ownerRetained;
        entry.acksExpected = 0;
        break;
      case MsgType::DataE:
        ccsvm_assert(policyFor(entry.region, *policy_)
                         .hasExclusiveState(),
                     "DataE at L1 %d for a block whose protocol (%s) "
                     "has no E (L1/directory protocol mismatch?)",
                     id_, policyFor(entry.region, *policy_).name());
        entry.dataReceived = true;
        entry.data = msg.data;
        entry.fillState = CohState::E;
        entry.acksExpected = 0;
        break;
      case MsgType::DataM:
        entry.dataReceived = true;
        entry.data = msg.data;
        entry.fillState = CohState::M;
        entry.acksExpected = msg.ackCount;
        break;
      case MsgType::GrantM:
        entry.granted = true;
        entry.acksExpected = msg.ackCount;
        break;
      default:
        ccsvm_panic("unreachable");
    }
    tryComplete(entry);
}

void
L1Controller::handleInvAck(CohMsg &msg)
{
    auto it = mshrs_.find(msg.blockAddr);
    ccsvm_assert(it != mshrs_.end(),
                 "InvAck without MSHR at L1 %d", id_);
    ++it->second.acksReceived;
    tryComplete(it->second);
}

void
L1Controller::handlePutAck(CohMsg &msg)
{
    auto it = evicts_.find(msg.blockAddr);
    ccsvm_assert(it != evicts_.end(),
                 "PutAck without eviction at L1 %d", id_);
    RequestQueue waiters = std::exchange(it->second.waiters, {});
    evicts_.erase(it);
    // pop() reads each request's link before access() relinks it.
    while (!waiters.empty())
        access(waiters.pop());
    retryStalledFills();
}

// ---------------------------------------------------------------------
// Functional (zero-time) access support
// ---------------------------------------------------------------------

bool
L1Controller::funcReadBlock(Addr block_addr, std::uint8_t *out)
{
    const Line *copy = copyOf(block_addr);
    if (!copy || !owns(copy->state))
        return false;
    std::memcpy(out, copy->data.data(), mem::blockBytes);
    return true;
}

void
L1Controller::funcWriteBlock(Addr block_addr, unsigned offset,
                             const void *src, unsigned len)
{
    ccsvm_assert(offset + len <= mem::blockBytes,
                 "functional write crosses block");
    if (Line *copy = copyOf(block_addr))
        std::memcpy(copy->data.data() + offset, src, len);
    if (auto it = mshrs_.find(block_addr);
        it != mshrs_.end() && it->second.dataReceived)
        std::memcpy(it->second.data.data() + offset, src, len);
}

// ---------------------------------------------------------------------
// Messaging helper
// ---------------------------------------------------------------------

void
L1Controller::sendToDir(CohMsg msg)
{
    const noc::NodeId home = sys_->homeOf(msg.blockAddr).node();
    sys_->send(node_, home, std::move(msg));
}

} // namespace ccsvm::coherence
