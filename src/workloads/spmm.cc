/**
 * @file
 * Sparse matrix multiplication (paper Sec. 5.3.2, Fig. 8).
 *
 * "For extremely large, sparse matrices, the only tractable way to
 * represent them is with pointer-based data structures that link
 * non-zero elements." A and B are linked-list rows; each MTTOP thread
 * computes one (strided) set of C rows, allocating every result node
 * dynamically through mttop_malloc — the CPU thread services the
 * allocation requests while it waits (Table 1's waitCondition). As
 * the paper observes, the speedup collapses when density rises and
 * the CPU-serviced mallocs become the bottleneck; the CPU-only
 * version uses ordinary local malloc. There is no OpenCL version
 * (the paper: "As with barnes-hut, there is no OpenCL version").
 */

#include "workloads/workloads.hh"

#include <map>
#include <vector>

#include "runtime/xthreads.hh"

namespace ccsvm::workloads
{

using core::ThreadContext;
using sim::GuestTask;
using vm::VAddr;
namespace xt = ccsvm::xthreads;

namespace
{

/** Node layout: {u32 col, i32 val, u64 next} = 16 bytes. */
enum NodeField : unsigned
{
    nodeCol = 0,
    nodeVal = 4,
    nodeNext = 8,
};
constexpr unsigned nodeBytes = 16;

/** Deterministic sparsity pattern and values. */
bool
present(const SpmmParams &p, unsigned matrix, unsigned i, unsigned j)
{
    // Cheap hash -> [0,1) threshold against the density.
    std::uint64_t h = (static_cast<std::uint64_t>(matrix) << 40) ^
                      (static_cast<std::uint64_t>(i) << 20) ^ j ^
                      p.seed;
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdull;
    h ^= h >> 33;
    return static_cast<double>(h % 100000) / 100000.0 < p.density;
}

std::int32_t
valueAt(unsigned matrix, unsigned i, unsigned j)
{
    return static_cast<std::int32_t>((i * 13 + j * 7 + matrix) % 9) -
           4;
}

/** Host golden: dense product of the sparse inputs. */
std::vector<std::int64_t>
goldenSpmm(const SpmmParams &p)
{
    const unsigned n = p.n;
    std::vector<std::int32_t> a(static_cast<std::size_t>(n) * n, 0);
    std::vector<std::int32_t> b(a), dummy;
    for (unsigned i = 0; i < n; ++i) {
        for (unsigned j = 0; j < n; ++j) {
            if (present(p, 0, i, j))
                a[static_cast<std::size_t>(i) * n + j] =
                    valueAt(0, i, j);
            if (present(p, 1, i, j))
                b[static_cast<std::size_t>(i) * n + j] =
                    valueAt(1, i, j);
        }
    }
    std::vector<std::int64_t> c(static_cast<std::size_t>(n) * n, 0);
    for (unsigned i = 0; i < n; ++i)
        for (unsigned k = 0; k < n; ++k) {
            const auto av = a[static_cast<std::size_t>(i) * n + k];
            if (av == 0)
                continue;
            for (unsigned j = 0; j < n; ++j)
                c[static_cast<std::size_t>(i) * n + j] +=
                    static_cast<std::int64_t>(av) *
                    b[static_cast<std::size_t>(k) * n + j];
        }
    return c;
}

/** Build one sparse input matrix in guest memory (CPU, sequential).
 * Rows are linked lists in ascending column order. */
GuestTask
buildInput(ThreadContext &ctx, const SpmmParams &p, unsigned matrix,
           VAddr row_heads)
{
    runtime::Process &proc = *ctx.process();
    for (unsigned i = 0; i < p.n; ++i) {
        co_await ctx.store<std::uint64_t>(row_heads + i * 8, 0);
        VAddr tail = 0;
        for (unsigned j = 0; j < p.n; ++j) {
            co_await ctx.compute(3); // pattern check
            if (!present(p, matrix, i, j))
                continue;
            co_await ctx.compute(80); // malloc bookkeeping
            const VAddr node = proc.gmalloc(nodeBytes);
            co_await ctx.store<std::uint32_t>(node + nodeCol, j);
            co_await ctx.store<std::int32_t>(node + nodeVal,
                                             valueAt(matrix, i, j));
            co_await ctx.store<std::uint64_t>(node + nodeNext, 0);
            if (tail == 0) {
                co_await ctx.store<std::uint64_t>(row_heads + i * 8,
                                                  node);
            } else {
                co_await ctx.store<std::uint64_t>(tail + nodeNext,
                                                  node);
            }
            tail = node;
        }
    }
}

/** Argument block for the MTTOP kernel. */
enum ArgSlot : unsigned
{
    argARows = 0,
    argBRows = 8,
    argCRows = 16,
    argScratch = 24,
    argBoxes = 32,
    argDone = 40,
    argN = 48,
    argThreads = 52,
};

/**
 * Compute C rows i = tid, tid+stride, ... walking the linked inputs;
 * result nodes come from @p alloc (mttop_malloc or local malloc).
 */
GuestTask
spmmRows(ThreadContext &ctx, VAddr a_rows, VAddr b_rows,
         VAddr c_rows, VAddr scratch, unsigned n, unsigned tid,
         unsigned stride,
         const std::function<GuestTask(ThreadContext &, VAddr &)>
             &alloc)
{
    for (unsigned i = tid; i < n; i += stride) {
        // Accumulate into this thread's dense scratch row.
        VAddr anode =
            co_await ctx.load<std::uint64_t>(a_rows + i * 8);
        while (anode != 0) {
            const auto k =
                co_await ctx.load<std::uint32_t>(anode + nodeCol);
            const auto av = static_cast<std::int32_t>(
                co_await ctx.load<std::int32_t>(anode + nodeVal));
            VAddr bnode =
                co_await ctx.load<std::uint64_t>(b_rows + k * 8);
            while (bnode != 0) {
                const auto j = co_await ctx.load<std::uint32_t>(
                    bnode + nodeCol);
                const auto bv = static_cast<std::int32_t>(
                    co_await ctx.load<std::int32_t>(bnode +
                                                    nodeVal));
                const VAddr slot = scratch + j * 8;
                const auto acc = static_cast<std::int64_t>(
                    co_await ctx.load<std::int64_t>(slot));
                co_await ctx.compute(2);
                co_await ctx.store<std::int64_t>(
                    slot,
                    acc + static_cast<std::int64_t>(av) * bv);
                bnode = co_await ctx.load<std::uint64_t>(bnode +
                                                         nodeNext);
            }
            anode =
                co_await ctx.load<std::uint64_t>(anode + nodeNext);
        }

        // Emit the non-zeros as a fresh linked row (prepend order),
        // clearing the scratch for the next row.
        VAddr head = 0;
        for (unsigned j = 0; j < n; ++j) {
            const VAddr slot = scratch + j * 8;
            const auto acc = static_cast<std::int64_t>(
                co_await ctx.load<std::int64_t>(slot));
            co_await ctx.compute(1);
            if (acc == 0)
                continue;
            VAddr node = 0;
            co_await alloc(ctx, node);
            co_await ctx.store<std::uint32_t>(node + nodeCol, j);
            co_await ctx.store<std::int32_t>(
                node + nodeVal, static_cast<std::int32_t>(acc));
            co_await ctx.store<std::uint64_t>(node + nodeNext, head);
            head = node;
            co_await ctx.store<std::int64_t>(slot, 0);
        }
        co_await ctx.store<std::uint64_t>(c_rows + i * 8, head);
    }
}

GuestTask
spmmKernel(ThreadContext &ctx, VAddr args)
{
    const VAddr a_rows =
        co_await ctx.load<std::uint64_t>(args + argARows);
    const VAddr b_rows =
        co_await ctx.load<std::uint64_t>(args + argBRows);
    const VAddr c_rows =
        co_await ctx.load<std::uint64_t>(args + argCRows);
    const VAddr scratch_base =
        co_await ctx.load<std::uint64_t>(args + argScratch);
    const VAddr boxes =
        co_await ctx.load<std::uint64_t>(args + argBoxes);
    const VAddr done =
        co_await ctx.load<std::uint64_t>(args + argDone);
    const auto n = static_cast<unsigned>(
        co_await ctx.load<std::uint32_t>(args + argN));
    const auto stride = static_cast<unsigned>(
        co_await ctx.load<std::uint32_t>(args + argThreads));

    const VAddr scratch =
        scratch_base + static_cast<VAddr>(ctx.tid()) * n * 8;
    // Result nodes come from the CPU-serviced dynamic allocator.
    auto alloc = [boxes](ThreadContext &c,
                         VAddr &out) -> GuestTask {
        co_await xt::mttopMalloc(c, boxes, nodeBytes, out);
    };
    co_await spmmRows(ctx, a_rows, b_rows, c_rows, scratch, n,
                      ctx.tid(), stride, alloc);
    co_await xt::mttopSignal(ctx, done);
}

bool
verify(runtime::Process &proc, const SpmmParams &p, VAddr c_rows)
{
    const auto golden = goldenSpmm(p);
    for (unsigned i = 0; i < p.n; ++i) {
        std::map<unsigned, std::int64_t> row;
        VAddr node = proc.peek<std::uint64_t>(c_rows + i * 8);
        while (node != 0) {
            const auto col =
                proc.peek<std::uint32_t>(node + nodeCol);
            const auto val = proc.peek<std::int32_t>(node + nodeVal);
            if (!row.emplace(col, val).second)
                return false; // duplicate column
            node = proc.peek<std::uint64_t>(node + nodeNext);
        }
        for (unsigned j = 0; j < p.n; ++j) {
            const auto expect =
                golden[static_cast<std::size_t>(i) * p.n + j];
            auto it = row.find(j);
            const std::int64_t got =
                it == row.end() ? 0 : it->second;
            if (got != expect)
                return false;
        }
    }
    return true;
}

} // namespace

RunResult
spmmXthreads(system::CcsvmMachine &m, const SpmmParams &p)
{
    runtime::Process &proc = m.createProcess();

    const unsigned workers = std::min(p.n, m.mttopContexts());

    const VAddr a_rows = proc.gmalloc(p.n * 8);
    const VAddr b_rows = proc.gmalloc(p.n * 8);
    const VAddr c_rows = proc.gmalloc(p.n * 8);
    const VAddr scratch =
        proc.gmalloc(static_cast<Addr>(workers) * p.n * 8);
    const VAddr boxes = proc.gmalloc(workers * 16);
    const VAddr done = proc.gmalloc(workers * 4);
    const VAddr args = proc.gmalloc(64);
    for (unsigned t = 0; t < workers; ++t) {
        proc.poke<std::uint32_t>(done + t * 4, 0);
        proc.poke<std::uint64_t>(boxes + t * 16, 0);
        proc.poke<std::uint32_t>(boxes + t * 16 + 8, 0);
    }
    proc.poke<std::uint64_t>(args + argARows, a_rows);
    proc.poke<std::uint64_t>(args + argBRows, b_rows);
    proc.poke<std::uint64_t>(args + argCRows, c_rows);
    proc.poke<std::uint64_t>(args + argScratch, scratch);
    proc.poke<std::uint64_t>(args + argBoxes, boxes);
    proc.poke<std::uint64_t>(args + argDone, done);
    proc.poke<std::uint32_t>(args + argN, p.n);
    proc.poke<std::uint32_t>(args + argThreads, workers);

    Tick build_ticks = 0;
    RunResult r = measureMain(
        m, proc,
        [&, workers](ThreadContext &ctx,
                     VAddr args_va) -> GuestTask {
            const Tick t0 = m.now();
            co_await buildInput(ctx, p, 0, a_rows);
            co_await buildInput(ctx, p, 1, b_rows);
            build_ticks = m.now() - t0;
            co_await xt::createMthread(ctx, spmmKernel, args_va, 0,
                                       workers - 1);
            // Serve mttop_malloc requests while waiting for the
            // workers to finish.
            co_await xt::cpuMallocServerUntilDone(ctx, boxes, 0,
                                                  workers - 1, done);
        },
        args);
    // The benchmark is the multiplication; input construction is
    // identical (and serial) on every system and excluded.
    r.ticks -= build_ticks;
    r.ticksNoInit = r.ticks;
    r.correct = verify(proc, p, c_rows);
    return r;
}

RunResult
spmmCpuSingle(const SpmmParams &p, apu::ApuConfig cfg)
{
    apu::ApuMachine m(cfg);
    runtime::Process &proc = m.createProcess();

    const VAddr a_rows = proc.gmalloc(p.n * 8);
    const VAddr b_rows = proc.gmalloc(p.n * 8);
    const VAddr c_rows = proc.gmalloc(p.n * 8);
    const VAddr scratch = proc.gmalloc(static_cast<Addr>(p.n) * 8);

    Tick build_ticks = 0;
    RunResult r = measureMain(
        m, proc, [&](ThreadContext &ctx, VAddr) -> GuestTask {
            const Tick t0 = m.now();
            co_await buildInput(ctx, p, 0, a_rows);
            co_await buildInput(ctx, p, 1, b_rows);
            build_ticks = m.now() - t0;
            // Ordinary local malloc on the CPU.
            auto alloc = [](ThreadContext &c,
                            VAddr &out) -> GuestTask {
                co_await c.compute(80);
                out = c.process()->gmalloc(nodeBytes);
            };
            co_await spmmRows(ctx, a_rows, b_rows, c_rows, scratch,
                              p.n, 0, 1, alloc);
        });
    r.ticks -= build_ticks;
    r.ticksNoInit = r.ticks;
    r.correct = verify(proc, p, c_rows);
    return r;
}

} // namespace ccsvm::workloads
