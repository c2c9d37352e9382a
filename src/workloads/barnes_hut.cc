/**
 * @file
 * Barnes-Hut n-body simulation (paper Sec. 5.3.1, Fig. 7).
 *
 * "This benchmark extensively uses pointers and recursion and, most
 * problematically for current CPU/MTTOP chips, involves frequent
 * toggling between sequential and parallel phases." Each timestep:
 * the CPU sequentially (re)builds a pointer-linked quadtree with
 * dynamically allocated nodes and computes centers of mass; the
 * parallel phase computes forces by recursive tree traversal and
 * integrates positions — on the MTTOP (xthreads), on 4 APU CPU cores
 * (pthreads), or on one CPU core. We use a 2-D quadtree (the paper
 * ports "the well-known barnes-hut" benchmark without specifying
 * dimensionality; 2-D keeps the pointer-chasing structure, the
 * recursion and the phase toggling that the benchmark is there for,
 * at lower simulation cost).
 *
 * Guest float arithmetic happens host-side between guest memory
 * operations in exactly the order the golden model uses, so results
 * are compared with a tight epsilon.
 */

#include "workloads/workloads.hh"

#include <cmath>
#include <vector>

#include "base/random.hh"
#include "runtime/xthreads.hh"

namespace ccsvm::workloads
{

using core::ThreadContext;
using sim::GuestTask;
using vm::VAddr;
namespace xt = ccsvm::xthreads;

namespace
{

constexpr float softening = 1e-4f;

/** Guest node layout: exactly one 64-byte cache block. */
enum NodeField : unsigned
{
    nodeCx = 0,
    nodeCy = 4,
    nodeHalf = 8,
    nodeMass = 12,
    nodeComX = 16,
    nodeComY = 20,
    nodeKind = 24, ///< 0 = internal, 1 = leaf
    nodeBody = 28,
    nodeChild0 = 32, ///< 4 x u64 child pointers
};
constexpr unsigned nodeBytes = 64;

/** Guest body arrays (SoA). */
struct BodyArrays
{
    VAddr x, y, vx, vy, fx, fy;
};

/** Deterministic jittered-grid initial conditions: bodies never
 * coincide, bounding the tree depth. */
void
initBodies(const BarnesHutParams &p, std::vector<float> &x,
           std::vector<float> &y, std::vector<float> &vx,
           std::vector<float> &vy)
{
    Random rng(p.seed);
    const auto g = static_cast<unsigned>(
        std::ceil(std::sqrt(static_cast<double>(p.bodies))));
    x.resize(p.bodies);
    y.resize(p.bodies);
    vx.assign(p.bodies, 0.0f);
    vy.assign(p.bodies, 0.0f);
    for (unsigned i = 0; i < p.bodies; ++i) {
        const unsigned gx = i % g, gy = i / g;
        const float jx = static_cast<float>(rng.real()) * 0.5f + 0.25f;
        const float jy = static_cast<float>(rng.real()) * 0.5f + 0.25f;
        x[i] = ((gx + jx) / g) * 2.0f - 1.0f;
        y[i] = ((gy + jy) / g) * 2.0f - 1.0f;
        vx[i] = (static_cast<float>(rng.real()) - 0.5f) * 0.1f;
        vy[i] = (static_cast<float>(rng.real()) - 0.5f) * 0.1f;
    }
}

// ---------------------------------------------------------------------
// Host golden model (same structure, same order, same arithmetic)
// ---------------------------------------------------------------------

struct HostNode
{
    float cx, cy, half;
    float mass = 0, comx = 0, comy = 0;
    bool leaf = true;
    unsigned body = 0;
    int child[4] = {-1, -1, -1, -1};
};

struct HostTree
{
    std::vector<HostNode> nodes;

    int
    makeNode(float cx, float cy, float half)
    {
        nodes.push_back(HostNode{cx, cy, half});
        return static_cast<int>(nodes.size()) - 1;
    }

    static int
    quadrant(const HostNode &n, float bx, float by)
    {
        return (bx >= n.cx ? 1 : 0) | (by >= n.cy ? 2 : 0);
    }

    void
    childBounds(const HostNode &n, int q, float &cx, float &cy,
                float &half) const
    {
        half = n.half * 0.5f;
        cx = n.cx + ((q & 1) ? half : -half);
        cy = n.cy + ((q & 2) ? half : -half);
    }

    void
    insert(int ni, unsigned b, const std::vector<float> &x,
           const std::vector<float> &y)
    {
        HostNode &n = nodes[ni];
        if (n.leaf && n.mass == 0) {
            // Empty leaf: claim it.
            n.body = b;
            n.mass = 1.0f;
            return;
        }
        if (n.leaf) {
            // Occupied leaf: split.
            const unsigned old = n.body;
            n.leaf = false;
            n.mass = 0;
            insertIntoChild(ni, old, x, y);
            insertIntoChild(ni, b, x, y);
            return;
        }
        insertIntoChild(ni, b, x, y);
    }

    void
    insertIntoChild(int ni, unsigned b, const std::vector<float> &x,
                    const std::vector<float> &y)
    {
        const int q = quadrant(nodes[ni], x[b], y[b]);
        if (nodes[ni].child[q] < 0) {
            float cx, cy, half;
            childBounds(nodes[ni], q, cx, cy, half);
            const int c = makeNode(cx, cy, half);
            nodes[ni].child[q] = c; // (makeNode may reallocate)
        }
        insert(nodes[ni].child[q], b, x, y);
    }

    void
    computeCom(int ni, const std::vector<float> &x,
               const std::vector<float> &y)
    {
        HostNode &n = nodes[ni];
        if (n.leaf) {
            n.comx = x[n.body];
            n.comy = y[n.body];
            return;
        }
        float m = 0, mx = 0, my = 0;
        for (int q = 0; q < 4; ++q) {
            const int c = n.child[q];
            if (c < 0)
                continue;
            computeCom(c, x, y);
            m += nodes[c].mass;
            mx += nodes[c].mass * nodes[c].comx;
            my += nodes[c].mass * nodes[c].comy;
        }
        n.mass = m;
        n.comx = mx / m;
        n.comy = my / m;
    }

    void
    force(int ni, unsigned b, float bx, float by, float theta,
          float &fx, float &fy) const
    {
        const HostNode &n = nodes[ni];
        if (n.leaf) {
            if (n.body == b)
                return;
            accumulate(n.comx, n.comy, n.mass, bx, by, fx, fy);
            return;
        }
        const float dx = n.comx - bx, dy = n.comy - by;
        const float dist =
            std::sqrt(dx * dx + dy * dy + softening);
        if ((n.half * 2.0f) / dist < theta) {
            accumulate(n.comx, n.comy, n.mass, bx, by, fx, fy);
            return;
        }
        for (int q = 0; q < 4; ++q) {
            if (n.child[q] >= 0)
                force(n.child[q], b, bx, by, theta, fx, fy);
        }
    }

    static void
    accumulate(float sx, float sy, float sm, float bx, float by,
               float &fx, float &fy)
    {
        const float dx = sx - bx, dy = sy - by;
        const float d2 = dx * dx + dy * dy + softening;
        const float inv = 1.0f / (d2 * std::sqrt(d2));
        fx += sm * dx * inv;
        fy += sm * dy * inv;
    }
};

/** Full golden simulation; returns final positions. */
void
goldenBarnesHut(const BarnesHutParams &p, std::vector<float> &x,
                std::vector<float> &y)
{
    std::vector<float> vx, vy;
    initBodies(p, x, y, vx, vy);
    for (unsigned step = 0; step < p.steps; ++step) {
        HostTree tree;
        const int root = tree.makeNode(0.0f, 0.0f, 4.0f);
        for (unsigned b = 0; b < p.bodies; ++b)
            tree.insert(root, b, x, y);
        tree.computeCom(root, x, y);
        std::vector<float> fx(p.bodies, 0), fy(p.bodies, 0);
        for (unsigned b = 0; b < p.bodies; ++b)
            tree.force(root, b, x[b], y[b], p.theta, fx[b], fy[b]);
        for (unsigned b = 0; b < p.bodies; ++b) {
            vx[b] += fx[b] * p.dt;
            vy[b] += fy[b] * p.dt;
            x[b] += vx[b] * p.dt;
            y[b] += vy[b] * p.dt;
        }
    }
}

// ---------------------------------------------------------------------
// Guest implementation (identical algorithm over guest memory)
// ---------------------------------------------------------------------

/** Allocate a guest node via the process allocator, charging the CPU
 * for malloc bookkeeping (the paper's CPU-side malloc). */
GuestTask
newNode(ThreadContext &ctx, float cx, float cy, float half,
        VAddr &out)
{
    co_await ctx.compute(80); // allocator bookkeeping
    out = ctx.process()->gmalloc(nodeBytes);
    co_await ctx.store<float>(out + nodeCx, cx);
    co_await ctx.store<float>(out + nodeCy, cy);
    co_await ctx.store<float>(out + nodeHalf, half);
    co_await ctx.store<float>(out + nodeMass, 0.0f);
    co_await ctx.store<std::uint32_t>(out + nodeKind, 1); // leaf
    for (int q = 0; q < 4; ++q)
        co_await ctx.store<std::uint64_t>(
            out + nodeChild0 + q * 8, 0);
}

GuestTask guestInsert(ThreadContext &ctx, VAddr node, unsigned b,
                      const BodyArrays &bodies);

GuestTask
guestInsertIntoChild(ThreadContext &ctx, VAddr node, unsigned b,
                     const BodyArrays &bodies)
{
    const float bx = co_await ctx.load<float>(bodies.x + b * 4);
    const float by = co_await ctx.load<float>(bodies.y + b * 4);
    const float cx = co_await ctx.load<float>(node + nodeCx);
    const float cy = co_await ctx.load<float>(node + nodeCy);
    const float half = co_await ctx.load<float>(node + nodeHalf);
    co_await ctx.compute(4);
    const int q = (bx >= cx ? 1 : 0) | (by >= cy ? 2 : 0);

    VAddr child = co_await ctx.load<std::uint64_t>(
        node + nodeChild0 + q * 8);
    if (child == 0) {
        const float chalf = half * 0.5f;
        const float ccx = cx + ((q & 1) ? chalf : -chalf);
        const float ccy = cy + ((q & 2) ? chalf : -chalf);
        co_await newNode(ctx, ccx, ccy, chalf, child);
        co_await ctx.store<std::uint64_t>(
            node + nodeChild0 + q * 8, child);
    }
    co_await guestInsert(ctx, child, b, bodies);
}

GuestTask
guestInsert(ThreadContext &ctx, VAddr node, unsigned b,
            const BodyArrays &bodies)
{
    const auto kind =
        co_await ctx.load<std::uint32_t>(node + nodeKind);
    const float mass = co_await ctx.load<float>(node + nodeMass);
    if (kind == 1 && mass == 0.0f) {
        co_await ctx.store<std::uint32_t>(node + nodeBody, b);
        co_await ctx.store<float>(node + nodeMass, 1.0f);
        co_return;
    }
    if (kind == 1) {
        const auto old =
            co_await ctx.load<std::uint32_t>(node + nodeBody);
        co_await ctx.store<std::uint32_t>(node + nodeKind, 0);
        co_await ctx.store<float>(node + nodeMass, 0.0f);
        co_await guestInsertIntoChild(ctx, node, old, bodies);
        co_await guestInsertIntoChild(ctx, node, b, bodies);
        co_return;
    }
    co_await guestInsertIntoChild(ctx, node, b, bodies);
}

GuestTask
guestComputeCom(ThreadContext &ctx, VAddr node,
                const BodyArrays &bodies)
{
    const auto kind =
        co_await ctx.load<std::uint32_t>(node + nodeKind);
    if (kind == 1) {
        const auto b =
            co_await ctx.load<std::uint32_t>(node + nodeBody);
        const float bx = co_await ctx.load<float>(bodies.x + b * 4);
        const float by = co_await ctx.load<float>(bodies.y + b * 4);
        co_await ctx.store<float>(node + nodeComX, bx);
        co_await ctx.store<float>(node + nodeComY, by);
        co_return;
    }
    float m = 0, mx = 0, my = 0;
    for (int q = 0; q < 4; ++q) {
        const VAddr child = co_await ctx.load<std::uint64_t>(
            node + nodeChild0 + q * 8);
        if (child == 0)
            continue;
        co_await guestComputeCom(ctx, child, bodies);
        const float cm = co_await ctx.load<float>(child + nodeMass);
        const float cx = co_await ctx.load<float>(child + nodeComX);
        const float cy = co_await ctx.load<float>(child + nodeComY);
        co_await ctx.compute(6);
        m += cm;
        mx += cm * cx;
        my += cm * cy;
    }
    co_await ctx.store<float>(node + nodeMass, m);
    co_await ctx.store<float>(node + nodeComX, mx / m);
    co_await ctx.store<float>(node + nodeComY, my / m);
}

GuestTask
guestForce(ThreadContext &ctx, VAddr node, unsigned b, float bx,
           float by, float theta, float &fx, float &fy)
{
    const auto kind =
        co_await ctx.load<std::uint32_t>(node + nodeKind);
    const float comx = co_await ctx.load<float>(node + nodeComX);
    const float comy = co_await ctx.load<float>(node + nodeComY);
    const float mass = co_await ctx.load<float>(node + nodeMass);

    if (kind == 1) {
        const auto nb =
            co_await ctx.load<std::uint32_t>(node + nodeBody);
        if (nb == b)
            co_return;
        co_await ctx.compute(12);
        HostTree::accumulate(comx, comy, mass, bx, by, fx, fy);
        co_return;
    }
    const float half = co_await ctx.load<float>(node + nodeHalf);
    co_await ctx.compute(10);
    const float dx = comx - bx, dy = comy - by;
    const float dist = std::sqrt(dx * dx + dy * dy + softening);
    if ((half * 2.0f) / dist < theta) {
        co_await ctx.compute(8);
        HostTree::accumulate(comx, comy, mass, bx, by, fx, fy);
        co_return;
    }
    for (int q = 0; q < 4; ++q) {
        const VAddr child = co_await ctx.load<std::uint64_t>(
            node + nodeChild0 + q * 8);
        if (child != 0)
            co_await guestForce(ctx, child, b, bx, by, theta, fx,
                                fy);
    }
}

/** Sequential phase: build tree + centers of mass; root in @p root. */
GuestTask
guestBuildTree(ThreadContext &ctx, const BarnesHutParams &p,
               const BodyArrays &bodies, VAddr &root)
{
    co_await newNode(ctx, 0.0f, 0.0f, 4.0f, root);
    for (unsigned b = 0; b < p.bodies; ++b)
        co_await guestInsert(ctx, root, b, bodies);
    co_await guestComputeCom(ctx, root, bodies);
}

/** Parallel phase for one worker: forces + integration for bodies
 * tid, tid+stride, ... */
GuestTask
guestForceAndUpdate(ThreadContext &ctx, const BarnesHutParams &p,
                    const BodyArrays &bodies, VAddr root,
                    unsigned tid, unsigned stride)
{
    for (unsigned b = tid; b < p.bodies; b += stride) {
        const float bx = co_await ctx.load<float>(bodies.x + b * 4);
        const float by = co_await ctx.load<float>(bodies.y + b * 4);
        float fx = 0, fy = 0;
        co_await guestForce(ctx, root, b, bx, by, p.theta, fx, fy);
        const float vx = co_await ctx.load<float>(bodies.vx + b * 4);
        const float vy = co_await ctx.load<float>(bodies.vy + b * 4);
        co_await ctx.compute(8);
        const float nvx = vx + fx * p.dt;
        const float nvy = vy + fy * p.dt;
        co_await ctx.store<float>(bodies.vx + b * 4, nvx);
        co_await ctx.store<float>(bodies.vy + b * 4, nvy);
        co_await ctx.store<float>(bodies.x + b * 4, bx + nvx * p.dt);
        co_await ctx.store<float>(bodies.y + b * 4, by + nvy * p.dt);
    }
}

/** Allocate and initialize guest body arrays. */
BodyArrays
setupBodies(runtime::Process &proc, const BarnesHutParams &p)
{
    std::vector<float> x, y, vx, vy;
    initBodies(p, x, y, vx, vy);
    BodyArrays b;
    b.x = proc.gmalloc(p.bodies * 4);
    b.y = proc.gmalloc(p.bodies * 4);
    b.vx = proc.gmalloc(p.bodies * 4);
    b.vy = proc.gmalloc(p.bodies * 4);
    b.fx = proc.gmalloc(p.bodies * 4);
    b.fy = proc.gmalloc(p.bodies * 4);
    for (unsigned i = 0; i < p.bodies; ++i) {
        proc.poke<float>(b.x + i * 4, x[i]);
        proc.poke<float>(b.y + i * 4, y[i]);
        proc.poke<float>(b.vx + i * 4, vx[i]);
        proc.poke<float>(b.vy + i * 4, vy[i]);
    }
    return b;
}

bool
verifyPositions(runtime::Process &proc, const BodyArrays &bodies,
                const BarnesHutParams &p)
{
    std::vector<float> gx, gy;
    goldenBarnesHut(p, gx, gy);
    for (unsigned i = 0; i < p.bodies; ++i) {
        const float x = proc.peek<float>(bodies.x + i * 4);
        const float y = proc.peek<float>(bodies.y + i * 4);
        if (std::fabs(x - gx[i]) > 1e-3f ||
            std::fabs(y - gy[i]) > 1e-3f)
            return false;
    }
    return true;
}

/** Barrier variables shared by the parallel versions. */
struct SyncVars
{
    VAddr bar1, bar2, sense1, sense2;
};

SyncVars
setupSync(runtime::Process &proc, unsigned workers)
{
    SyncVars s;
    s.bar1 = proc.gmalloc(workers * 4);
    s.bar2 = proc.gmalloc(workers * 4);
    s.sense1 = proc.gmalloc(4);
    s.sense2 = proc.gmalloc(4);
    for (unsigned t = 0; t < workers; ++t) {
        proc.poke<std::uint32_t>(s.bar1 + t * 4, 0);
        proc.poke<std::uint32_t>(s.bar2 + t * 4, 0);
    }
    proc.poke<std::uint32_t>(s.sense1, 0);
    proc.poke<std::uint32_t>(s.sense2, 0);
    return s;
}

/** Worker loop (MTTOP thread or APU pthread): per step, wait for the
 * tree, do the parallel phase, then rendezvous. */
GuestTask
workerLoop(ThreadContext &ctx, const BarnesHutParams &p,
           const BodyArrays &bodies, const SyncVars &sync,
           VAddr root_slot, unsigned stride)
{
    std::uint32_t s = 1;
    for (unsigned step = 0; step < p.steps; ++step) {
        co_await xt::mttopBarrier(ctx, sync.bar1, sync.sense1, s);
        const VAddr root =
            co_await ctx.load<std::uint64_t>(root_slot);
        co_await guestForceAndUpdate(ctx, p, bodies, root,
                                     ctx.tid(), stride);
        co_await xt::mttopBarrier(ctx, sync.bar2, sync.sense2, s);
        s ^= 1;
    }
}

/** Coordinator loop: per step, build the tree sequentially, release
 * the workers, optionally compute an own share, and rendezvous. */
GuestTask
coordinatorLoop(ThreadContext &ctx, const BarnesHutParams &p,
                const BodyArrays &bodies, const SyncVars &sync,
                VAddr root_slot, unsigned workers,
                bool coordinator_computes, unsigned stride)
{
    std::uint32_t s = 1;
    for (unsigned step = 0; step < p.steps; ++step) {
        VAddr root = 0;
        co_await guestBuildTree(ctx, p, bodies, root);
        co_await ctx.store<std::uint64_t>(root_slot, root);
        co_await xt::cpuBarrier(ctx, sync.bar1, sync.sense1, 0,
                                workers - 1, s);
        if (coordinator_computes) {
            co_await guestForceAndUpdate(ctx, p, bodies, root,
                                         workers, stride);
        }
        co_await xt::cpuBarrier(ctx, sync.bar2, sync.sense2, 0,
                                workers - 1, s);
        s ^= 1;
    }
}

} // namespace

RunResult
barnesHutXthreads(system::CcsvmMachine &m, const BarnesHutParams &p)
{
    runtime::Process &proc = m.createProcess();

    const unsigned workers = std::min(p.bodies, m.mttopContexts());

    const BodyArrays bodies = setupBodies(proc, p);
    const SyncVars sync = setupSync(proc, workers);
    const VAddr root_slot = proc.gmalloc(8);
    const VAddr done = proc.gmalloc(workers * 4);
    for (unsigned t = 0; t < workers; ++t)
        proc.poke<std::uint32_t>(done + t * 4, 0);

    RunResult r = measureMain(
        m, proc,
        [&, workers](ThreadContext &ctx, VAddr) -> GuestTask {
            // Launch the persistent MTTOP worker pool once.
            co_await xt::createMthread(
                ctx,
                [&, workers](ThreadContext &mt,
                             VAddr) -> GuestTask {
                    co_await workerLoop(mt, p, bodies, sync,
                                        root_slot, workers);
                    co_await xt::mttopSignal(mt, done);
                },
                0, 0, workers - 1);
            co_await coordinatorLoop(ctx, p, bodies, sync, root_slot,
                                     workers, false, workers);
            co_await xt::cpuWaitAll(ctx, done, 0, workers - 1);
        });
    r.correct = verifyPositions(proc, bodies, p);
    return r;
}

RunResult
barnesHutCpuSingle(const BarnesHutParams &p, apu::ApuConfig cfg)
{
    apu::ApuMachine m(cfg);
    runtime::Process &proc = m.createProcess();
    const BodyArrays bodies = setupBodies(proc, p);

    RunResult r = measureMain(
        m, proc, [&](ThreadContext &ctx, VAddr) -> GuestTask {
            for (unsigned step = 0; step < p.steps; ++step) {
                VAddr root = 0;
                co_await guestBuildTree(ctx, p, bodies, root);
                co_await guestForceAndUpdate(ctx, p, bodies, root, 0,
                                             1);
            }
        });
    r.correct = verifyPositions(proc, bodies, p);
    return r;
}

RunResult
barnesHutPthreads(const BarnesHutParams &p, apu::ApuConfig cfg)
{
    apu::ApuMachine m(cfg);
    runtime::Process &proc = m.createProcess();
    const BodyArrays bodies = setupBodies(proc, p);
    // 3 worker pthreads + the main thread computing its own share:
    // 4-way parallel force phase on the APU's 4 cores.
    const unsigned workers = 3;
    const unsigned stride = 4;
    const SyncVars sync = setupSync(proc, workers);
    const VAddr root_slot = proc.gmalloc(8);

    int remaining = static_cast<int>(workers);
    for (unsigned w = 0; w < workers; ++w) {
        m.spawnCpuThread(
            static_cast<int>(w + 1), proc,
            [&, stride](ThreadContext &ctx, VAddr) -> GuestTask {
                co_await workerLoop(ctx, p, bodies, sync, root_slot,
                                    stride);
            },
            0, [&remaining] { --remaining; });
    }
    RunResult r = measureMain(
        m, proc, [&](ThreadContext &ctx, VAddr) -> GuestTask {
            co_await coordinatorLoop(ctx, p, bodies, sync, root_slot,
                                     workers, true, stride);
        });
    m.runUntil([&] { return remaining == 0; });
    r.correct = verifyPositions(proc, bodies, p);
    return r;
}

} // namespace ccsvm::workloads
