/**
 * @file
 * The paper's evaluation workloads (Sec. 5), each implemented for
 * every system the paper measures:
 *
 * - dense matrix multiply (Fig. 5, Fig. 9): CCSVM/xthreads,
 *   APU/OpenCL (with and without init+JIT), single AMD CPU core
 * - all-pairs shortest path / Floyd-Warshall (Fig. 6): barrier per
 *   outer iteration; same three systems
 * - Barnes-Hut n-body (Fig. 7): pointer-based recursive quadtree,
 *   frequent sequential<->parallel toggling; CCSVM/xthreads vs one
 *   CPU core vs pthreads on the APU's 4 CPU cores (the paper found
 *   no OpenCL version to compare against, and so do we)
 * - sparse matrix multiply (Fig. 8): linked-list rows, result built
 *   with mttop_malloc; CCSVM/xthreads vs one CPU core
 *
 * Every runner runs the workload as guest code on a fresh machine (an
 * APU runner builds its own, a CCSVM runner takes the caller's),
 * validates results against a host golden model, and reports the
 * measured region's time and off-chip DRAM transactions.
 */

#ifndef CCSVM_WORKLOADS_WORKLOADS_HH
#define CCSVM_WORKLOADS_WORKLOADS_HH

#include "apu/apu_machine.hh"
#include "apu/ocl.hh"
#include "system/ccsvm_machine.hh"

namespace ccsvm::workloads
{

/**
 * Outcome of one workload run.
 *
 * The measured region, on either machine, runs from the start of the
 * guest main thread on CPU 0 to its exit; measureMain() defines it
 * once. Main starts at once; every other CPU thread the APU starts
 * pays its pthread_create cost inside the region. A runner subtracts
 * only a prefix of main that is not the benchmark: OpenCL platform
 * init + JIT from ticksNoInit, spmm's serial input build from both
 * tick fields.
 */
struct RunResult
{
    /** Measured region, ticks (ps). For OpenCL runs this includes
     * platform init + JIT compilation (the paper's "full runtime"). */
    Tick ticks = 0;
    /** OpenCL: measured region minus init+JIT (the paper's "runtime
     * without compilation and without OpenCL initialization");
     * equals ticks for other systems. */
    Tick ticksNoInit = 0;
    /** Off-chip DRAM transactions in the measured region (Fig. 9). */
    std::uint64_t dramAccesses = 0;
    /** Output matched the host golden model. */
    bool correct = false;
};

/** Run @p main as @p proc's main thread on @p m (a CcsvmMachine or
 * an ApuMachine) and measure it; the caller sets `correct`. */
template <typename Machine>
RunResult
measureMain(Machine &m, runtime::Process &proc, core::KernelFn main,
            vm::VAddr args = 0)
{
    const std::uint64_t dram = m.dramAccesses();
    RunResult r;
    r.ticks = m.runMain(proc, std::move(main), args);
    r.ticksNoInit = r.ticks;
    r.dramAccesses = m.dramAccesses() - dram;
    return r;
}

// --- dense matrix multiply (Fig. 5 / Fig. 9) -------------------------

/** @param region_hints annotate the A/B input matrices as read-mostly
 * regions (protocol override to MESI): their fills stay clean-
 * exclusive and a reader of freshly written inputs makes the home
 * copy clean instead of dirty-sharing it, whatever the cluster
 * protocol (driver flag --region-hints).
 * @param seed input-matrix seed (driver flag --seed). 0 (the
 * default) reproduces the historical affine-modular inputs byte for
 * byte; any other value draws the inputs from the repo PRNG
 * (base/random.hh) seeded per run — never from process-global libc
 * rand() state, so concurrent machines cannot perturb each other's
 * inputs. */
RunResult matmulXthreads(system::CcsvmMachine &m, unsigned n,
                         bool region_hints = false,
                         std::uint64_t seed = 0);
RunResult matmulOpenCl(unsigned n, apu::ApuConfig cfg = {},
                       apu::ocl::OclConfig ocl = {},
                       std::uint64_t seed = 0);
RunResult matmulCpuSingle(unsigned n, apu::ApuConfig cfg = {},
                          std::uint64_t seed = 0);

// --- all-pairs shortest path (Fig. 6) --------------------------------

RunResult apspXthreads(system::CcsvmMachine &m, unsigned n);
RunResult apspOpenCl(unsigned n, apu::ApuConfig cfg = {},
                     apu::ocl::OclConfig ocl = {});
RunResult apspCpuSingle(unsigned n, apu::ApuConfig cfg = {});

// --- Barnes-Hut n-body (Fig. 7) --------------------------------------

struct BarnesHutParams
{
    unsigned bodies = 256;
    unsigned steps = 2;
    float theta = 0.5f; ///< opening angle
    float dt = 0.05f;
    std::uint64_t seed = 42;
};

RunResult barnesHutXthreads(system::CcsvmMachine &m,
                            const BarnesHutParams &p);
RunResult barnesHutCpuSingle(const BarnesHutParams &p,
                             apu::ApuConfig cfg = {});
/** pthreads across the APU's 4 CPU cores (the paper's comparison). */
RunResult barnesHutPthreads(const BarnesHutParams &p,
                            apu::ApuConfig cfg = {});

// --- sparse matrix multiply (Fig. 8) ----------------------------------

struct SpmmParams
{
    unsigned n = 64;        ///< matrix dimension
    double density = 0.01;  ///< non-zero fraction
    std::uint64_t seed = 7;
};

RunResult spmmXthreads(system::CcsvmMachine &m,
                       const SpmmParams &p);
RunResult spmmCpuSingle(const SpmmParams &p, apu::ApuConfig cfg = {});

} // namespace ccsvm::workloads

#endif // CCSVM_WORKLOADS_WORKLOADS_HH
