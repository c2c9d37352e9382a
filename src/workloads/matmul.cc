/**
 * @file
 * Dense matrix multiplication (paper Sec. 5.2, Figures 5 and 9).
 *
 * C = A x B over int32 N x N matrices. The measured region for every
 * system covers input generation (the programs in the paper's
 * Figures 3/4 both generate inputs inside the program), task launch,
 * compute and join. The B-column access pattern is strided — the CPU
 * cannot coalesce it but the GPU's wavefronts can, which is the
 * mechanism behind Figure 9's DRAM-access gap.
 */

#include "workloads/workloads.hh"

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

/** Historical deterministic input values (the default-seed inputs). */
constexpr std::int32_t
legacyA(unsigned i, unsigned k)
{
    return static_cast<std::int32_t>((i * 7 + k * 13) % 17) - 8;
}

constexpr std::int32_t
legacyB(unsigned k, unsigned j)
{
    return static_cast<std::int32_t>((k * 5 + j * 11) % 19) - 9;
}

/**
 * The input matrices of one run, materialized host-side so the guest
 * generation loop, the golden model and the validator all read the
 * same values. Seed 0 reproduces the historical affine-modular
 * inputs byte for byte (the pre-seed simulator's output is a golden
 * reference in several sweep tests); any other seed draws from the
 * repo PRNG in the same value ranges. Each run owns its generator —
 * the paper's programs call libc rand() here (Figures 3/4), but a
 * process-global PRNG would make concurrent sweep machines perturb
 * each other's inputs.
 */
class MatmulInputs
{
  public:
    MatmulInputs(unsigned n, std::uint64_t seed) : n_(n)
    {
        const std::size_t elems = std::size_t(n) * n;
        a_.resize(elems);
        b_.resize(elems);
        if (seed == 0) {
            for (std::size_t idx = 0; idx < elems; ++idx) {
                const auto i = static_cast<unsigned>(idx / n);
                const auto k = static_cast<unsigned>(idx % n);
                a_[idx] = legacyA(i, k);
                b_[idx] = legacyB(i, k);
            }
        } else {
            Random rng(seed);
            for (std::size_t idx = 0; idx < elems; ++idx) {
                a_[idx] = static_cast<std::int32_t>(
                    rng.range(-8, 8));
                b_[idx] = static_cast<std::int32_t>(
                    rng.range(-9, 9));
            }
        }
    }

    std::int32_t
    a(unsigned i, unsigned k) const
    {
        return a_[std::size_t(i) * n_ + k];
    }

    std::int32_t
    b(unsigned k, unsigned j) const
    {
        return b_[std::size_t(k) * n_ + j];
    }

    /** Element of the generation loop's flat write order. */
    std::int32_t aFlat(unsigned idx) const { return a_[idx]; }
    std::int32_t bFlat(unsigned idx) const { return b_[idx]; }

  private:
    unsigned n_;
    std::vector<std::int32_t> a_;
    std::vector<std::int32_t> b_;
};

/** Host golden model. */
std::vector<std::int32_t>
goldenMatmul(const MatmulInputs &in, unsigned n)
{
    std::vector<std::int32_t> c(static_cast<std::size_t>(n) * n, 0);
    for (unsigned i = 0; i < n; ++i) {
        for (unsigned j = 0; j < n; ++j) {
            std::int64_t acc = 0;
            for (unsigned k = 0; k < n; ++k)
                acc += static_cast<std::int64_t>(in.a(i, k)) *
                       in.b(k, j);
            c[static_cast<std::size_t>(i) * n + j] =
                static_cast<std::int32_t>(acc);
        }
    }
    return c;
}

/** Shared argument block layout (u64-indexed). */
enum ArgSlot : unsigned
{
    argA = 0,
    argB = 8,
    argC = 16,
    argDone = 24,
    argN = 32,
    argThreads = 40,
};

/** Guest input generation: the rand() loops of Figures 3/4, with the
 * values drawn from the run's own seeded input table. */
GuestTask
generateInputs(ThreadContext &ctx, const MatmulInputs &in, VAddr a,
               VAddr b, unsigned n)
{
    for (unsigned idx = 0; idx < n * n; ++idx) {
        co_await ctx.compute(2);
        co_await ctx.store<std::int32_t>(a + idx * 4,
                                         in.aFlat(idx));
        co_await ctx.store<std::int32_t>(b + idx * 4,
                                         in.bFlat(idx));
    }
}

/** One thread's share of output elements, strided by thread count. */
GuestTask
matmulBody(ThreadContext &ctx, VAddr a, VAddr b, VAddr c, unsigned n,
           unsigned num_threads, unsigned tid)
{
    for (unsigned e = tid; e < n * n; e += num_threads) {
        const unsigned row = e / n, col = e % n;
        co_await ctx.compute(2); // index arithmetic
        std::int64_t acc = 0;
        for (unsigned k = 0; k < n; ++k) {
            const auto x = static_cast<std::int32_t>(
                co_await ctx.load<std::int32_t>(
                    a + (row * n + k) * 4));
            const auto y = static_cast<std::int32_t>(
                co_await ctx.load<std::int32_t>(
                    b + (k * n + col) * 4));
            co_await ctx.compute(2); // multiply-accumulate
            acc += static_cast<std::int64_t>(x) * y;
        }
        co_await ctx.store<std::int32_t>(
            c + e * 4, static_cast<std::int32_t>(acc));
    }
}

/** The MTTOP kernel: body + completion signal. */
GuestTask
matmulKernel(ThreadContext &ctx, VAddr args)
{
    const VAddr a = co_await ctx.load<std::uint64_t>(args + argA);
    const VAddr b = co_await ctx.load<std::uint64_t>(args + argB);
    const VAddr c = co_await ctx.load<std::uint64_t>(args + argC);
    const VAddr done =
        co_await ctx.load<std::uint64_t>(args + argDone);
    const auto n = static_cast<unsigned>(
        co_await ctx.load<std::uint32_t>(args + argN));
    const auto num_threads = static_cast<unsigned>(
        co_await ctx.load<std::uint32_t>(args + argThreads));
    co_await matmulBody(ctx, a, b, c, n, num_threads, ctx.tid());
    co_await xt::mttopSignal(ctx, done);
}

bool
verify(runtime::Process &proc, const MatmulInputs &in, VAddr c,
       unsigned n)
{
    const auto golden = goldenMatmul(in, n);
    for (unsigned idx = 0; idx < n * n; ++idx) {
        if (proc.peek<std::int32_t>(c + idx * 4) != golden[idx])
            return false;
    }
    return true;
}

} // namespace

RunResult
matmulXthreads(system::CcsvmMachine &m, unsigned n, bool region_hints,
               std::uint64_t seed)
{
    const MatmulInputs in(n, seed);
    runtime::Process &proc = m.createProcess();

    const unsigned num_threads = std::min(n * n, m.mttopContexts());

    // Region hints: the input matrices are written once (by the CPU's
    // input generation) and then only read by the MTTOP threads —
    // the canonical read-mostly region. Pin them to MESI: sole-copy
    // fills stay clean-exclusive and the first reader of a freshly
    // written line makes the home copy clean instead of leaving a
    // dirty-shared O owner behind, whatever the cluster protocol.
    VAddr a, b;
    if (region_hints) {
        const Addr mat_pages = roundUp(Addr(n) * n * 4,
                                       mem::pageBytes);
        a = proc.gmallocPages(mat_pages);
        b = proc.gmallocPages(mat_pages);
        // Explicit machine-level regions take precedence over the
        // read-mostly default annotation.
        for (const auto &[va, name] :
             {std::pair<VAddr, const char *>{a, "matmul:A"},
              std::pair<VAddr, const char *>{b, "matmul:B"}}) {
            if (proc.addressSpace().regions().overlaps(va,
                                                       mat_pages)) {
                ccsvm_warn("matmul: an explicit region already "
                           "covers %s; keeping its attribute", name);
                continue;
            }
            proc.addressSpace().addRegion(
                {name, va, mat_pages,
                 coherence::RegionAttr::ProtocolOverride,
                 coherence::Protocol::MESI});
        }
    } else {
        a = proc.gmalloc(n * n * 4);
        b = proc.gmalloc(n * n * 4);
    }
    const VAddr c = proc.gmalloc(n * n * 4);
    const VAddr done = proc.gmalloc(num_threads * 4);
    const VAddr args = proc.gmalloc(64);
    for (unsigned t = 0; t < num_threads; ++t)
        proc.poke<std::uint32_t>(done + t * 4, 0);
    proc.poke<std::uint64_t>(args + argA, a);
    proc.poke<std::uint64_t>(args + argB, b);
    proc.poke<std::uint64_t>(args + argC, c);
    proc.poke<std::uint64_t>(args + argDone, done);
    proc.poke<std::uint32_t>(args + argN, n);
    proc.poke<std::uint32_t>(args + argThreads, num_threads);

    RunResult r = measureMain(
        m, proc,
        [&in, a, b, n, num_threads](ThreadContext &ctx,
                                    VAddr args_va) -> GuestTask {
            co_await generateInputs(ctx, in, a, b, n);
            const VAddr done_va =
                co_await ctx.load<std::uint64_t>(args_va + argDone);
            co_await xt::createMthread(ctx, matmulKernel, args_va, 0,
                                       num_threads - 1);
            co_await xt::cpuWaitAll(ctx, done_va, 0,
                                    num_threads - 1);
        },
        args);
    r.correct = verify(proc, in, c, n);
    return r;
}

RunResult
matmulOpenCl(unsigned n, apu::ApuConfig cfg, apu::ocl::OclConfig ocl,
             std::uint64_t seed)
{
    const MatmulInputs in(n, seed);
    // Dense FMA-heavy kernels pack the Radeon VLIW well (the paper:
    // up to 4 ops per VLIW instruction when fully utilized).
    cfg.gpu.vliwUtilization = 4.0;
    apu::ApuMachine m(cfg);
    runtime::Process &proc = m.createProcess();
    apu::ocl::Context cl(m, proc, ocl);

    apu::ocl::Buffer ba = cl.createBuffer(n * n * 4);
    apu::ocl::Buffer bb = cl.createBuffer(n * n * 4);
    apu::ocl::Buffer bc = cl.createBuffer(n * n * 4);
    const Addr args = cl.writeArgs({ba.pa, bb.pa, bc.pa, n});

    Tick init_ticks = 0;
    RunResult r = measureMain(
        m, proc,
        [&m, &cl, &ba, &bb, &in, args, n,
         &init_ticks](ThreadContext &ctx, VAddr) -> GuestTask {
            const Tick t0 = m.now();
            co_await cl.init(ctx);
            co_await cl.buildProgram(ctx);
            init_ticks = m.now() - t0;

            co_await cl.mapBuffer(ctx, ba);
            co_await cl.mapBuffer(ctx, bb);
            co_await generateInputs(ctx, in, ba.va, bb.va, n);
            co_await cl.unmapBuffer(ctx, ba);
            co_await cl.unmapBuffer(ctx, bb);

            apu::ocl::Event ev;
            co_await cl.enqueueNDRange(
                ctx,
                [](ThreadContext &tc, VAddr a) -> GuestTask {
                    const Addr pa =
                        co_await tc.load<std::uint64_t>(a);
                    const Addr pb =
                        co_await tc.load<std::uint64_t>(a + 8);
                    const Addr pc =
                        co_await tc.load<std::uint64_t>(a + 16);
                    const auto nn = static_cast<unsigned>(
                        co_await tc.load<std::uint64_t>(a + 24));
                    co_await matmulBody(tc, pa, pb, pc, nn, nn * nn,
                                        tc.tid());
                },
                n * n, args, ev);
            co_await cl.finish(ctx, ev);
        });
    r.ticksNoInit -= init_ticks;
    // Verify against the golden model through raw memory (the GPU
    // wrote through the pinned region).
    const auto golden = goldenMatmul(in, n);
    r.correct = true;
    for (unsigned idx = 0; idx < n * n; ++idx) {
        const auto v = static_cast<std::int32_t>(
            m.physMem().readScalar(bc.pa + idx * 4, 4));
        if (v != golden[idx]) {
            r.correct = false;
            break;
        }
    }
    return r;
}

RunResult
matmulCpuSingle(unsigned n, apu::ApuConfig cfg, std::uint64_t seed)
{
    const MatmulInputs in(n, seed);
    apu::ApuMachine m(cfg);
    runtime::Process &proc = m.createProcess();
    const VAddr a = proc.gmalloc(n * n * 4);
    const VAddr b = proc.gmalloc(n * n * 4);
    const VAddr c = proc.gmalloc(n * n * 4);

    RunResult r = measureMain(
        m, proc,
        [&in, a, b, c, n](ThreadContext &ctx, VAddr) -> GuestTask {
            co_await generateInputs(ctx, in, a, b, n);
            co_await matmulBody(ctx, a, b, c, n, 1, 0);
        });
    r.correct = verify(proc, in, c, n);
    return r;
}

} // namespace ccsvm::workloads
