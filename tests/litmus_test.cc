/**
 * @file
 * Memory-consistency litmus tests.
 *
 * The paper's architectural claim (Sec. 3.2.3): the CCSVM chip is
 * sequentially consistent — "no write buffers between the cores and
 * their caches", one memory operation per thread. We run the classic
 * litmus shapes — store buffering (SB), message passing (MP), load
 * buffering (LB), coherent read-read (CoRR), and IRIW — many times
 * with randomized per-thread start delays, across CPU/CPU, CPU/MTTOP
 * and MTTOP/MTTOP thread placements — and across all three coherence
 * protocols (msi, mesi, moesi), since SC must hold regardless of the
 * protocol choice — and assert that the outcomes forbidden under SC
 * never occur. Any store buffer, stale-data window, or
 * write-atomicity leak in a protocol shows up here.
 */

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "base/random.hh"
#include "protocol_env.hh"
#include "runtime/xthreads.hh"
#include "system/ccsvm_machine.hh"

namespace ccsvm::system
{
namespace
{

using core::ThreadContext;
using runtime::Process;
using sim::GuestTask;
using vm::VAddr;
namespace xt = ccsvm::xthreads;

/** Shared state for one litmus iteration. */
struct LitmusState
{
    VAddr x, y;          ///< shared locations (distinct blocks)
    VAddr out;           ///< observed register values (u64 each)
    unsigned delays[4];  ///< random pre-delays per role
};

/** Where each litmus role runs. */
enum class Place
{
    Cpu,
    Mttop,
};

/** Machine config with the given coherence protocol. */
CcsvmConfig
machineConfig(coherence::Protocol proto)
{
    CcsvmConfig cfg;
    cfg.protocol = proto;
    return cfg;
}

class LitmusRunner
{
  public:
    explicit LitmusRunner(
        coherence::Protocol proto = coherence::Protocol::MOESI)
        : machine_(machineConfig(proto)),
          proc_(&machine_.createProcess())
    {}

    /**
     * Run the given role coroutines concurrently with random start
     * delays; returns the four observed registers.
     */
    std::array<std::uint64_t, 4>
    run(const std::vector<
            std::function<GuestTask(ThreadContext &,
                                    const LitmusState &)>> &roles,
        const std::vector<Place> &places, Random &rng)
    {
        LitmusState st;
        st.x = proc_->gmalloc(64);
        st.y = proc_->gmalloc(64);
        st.out = proc_->gmalloc(64);
        proc_->poke<std::uint64_t>(st.x, 0);
        proc_->poke<std::uint64_t>(st.y, 0);
        for (int i = 0; i < 4; ++i) {
            proc_->poke<std::uint64_t>(st.out + i * 8, 0);
            // Delays span the MTTOP dispatch latency (~2 us) so both
            // orders occur even for mixed CPU/MTTOP placements.
            st.delays[i] = static_cast<unsigned>(rng.below(9000));
        }

        int remaining = static_cast<int>(roles.size());
        int next_cpu = 0;
        for (std::size_t i = 0; i < roles.size(); ++i) {
            auto body = [role = roles[i],
                         st](ThreadContext &ctx,
                             VAddr) -> GuestTask {
                co_await role(ctx, st);
            };
            if (places[i] == Place::Cpu) {
                machine_.spawnCpuThread(next_cpu++, *proc_, body, 0,
                                        [&remaining] {
                                            --remaining;
                                        });
            } else {
                core::TaskDescriptor desc;
                desc.fn = body;
                desc.args = 0;
                desc.firstTid = 0;
                desc.lastTid = 0;
                desc.process = proc_;
                desc.onComplete = [&remaining] { --remaining; };
                machine_.mifd().submitTask(std::move(desc));
            }
        }
        const bool done = machine_.runUntil(
            [&remaining] { return remaining == 0; });
        ccsvm_assert(done, "litmus threads wedged");

        std::array<std::uint64_t, 4> regs{};
        for (int i = 0; i < 4; ++i)
            regs[i] = proc_->peek<std::uint64_t>(st.out + i * 8);
        return regs;
    }

  private:
    CcsvmMachine machine_;
    Process *proc_;
};

/** Convenience: delay + store. */
GuestTask
delayedStore(ThreadContext &ctx, unsigned delay, VAddr addr,
             std::uint64_t v)
{
    co_await ctx.compute(delay + 1);
    co_await ctx.store<std::uint64_t>(addr, v);
}

struct LitmusParam
{
    coherence::Protocol proto;
    Place p0, p1;
    const char *name;
};

class Litmus : public ::testing::TestWithParam<LitmusParam>
{};

/** All (protocol, placement) combinations. */
std::vector<LitmusParam>
litmusParams()
{
    struct Placement
    {
        Place p0, p1;
        const char *name;
    };
    static constexpr Placement placements[] = {
        {Place::Cpu, Place::Cpu, "cpu_cpu"},
        {Place::Cpu, Place::Mttop, "cpu_mttop"},
        {Place::Mttop, Place::Cpu, "mttop_cpu"},
        {Place::Mttop, Place::Mttop, "mttop_mttop"},
    };
    std::vector<LitmusParam> out;
    for (const auto proto : test::testProtocols())
        for (const auto &pl : placements)
            out.push_back({proto, pl.p0, pl.p1, pl.name});
    return out;
}

TEST_P(Litmus, StoreBufferingForbiddenUnderSC)
{
    // T0: x=1; r0=y.   T1: y=1; r1=x.   Forbidden: r0==0 && r1==0.
    const auto p = GetParam();
    Random rng(0x5b);
    LitmusRunner runner(p.proto);
    std::set<std::pair<std::uint64_t, std::uint64_t>> seen;
    for (int iter = 0; iter < 60; ++iter) {
        auto regs = runner.run(
            {[](ThreadContext &ctx,
                const LitmusState &st) -> GuestTask {
                 co_await ctx.compute(st.delays[0] + 1);
                 co_await ctx.store<std::uint64_t>(st.x, 1);
                 const auto r0 =
                     co_await ctx.load<std::uint64_t>(st.y);
                 co_await ctx.store<std::uint64_t>(st.out, r0);
             },
             [](ThreadContext &ctx,
                const LitmusState &st) -> GuestTask {
                 co_await ctx.compute(st.delays[1] + 1);
                 co_await ctx.store<std::uint64_t>(st.y, 1);
                 const auto r1 =
                     co_await ctx.load<std::uint64_t>(st.x);
                 co_await ctx.store<std::uint64_t>(st.out + 8, r1);
             }},
            {p.p0, p.p1}, rng);
        ASSERT_FALSE(regs[0] == 0 && regs[1] == 0)
            << "SB forbidden outcome (0,0) at iteration " << iter;
        seen.insert({regs[0], regs[1]});
    }
    // Sanity: the test actually explored more than one interleaving.
    EXPECT_GE(seen.size(), 2u);
}

TEST_P(Litmus, MessagePassingForbiddenUnderSC)
{
    // T0: x(data)=42; y(flag)=1.   T1: r0=y; r1=x.
    // Forbidden: r0==1 && r1==0.
    const auto p = GetParam();
    Random rng(0x3a);
    LitmusRunner runner(p.proto);
    int flag_seen = 0;
    for (int iter = 0; iter < 60; ++iter) {
        auto regs = runner.run(
            {[](ThreadContext &ctx,
                const LitmusState &st) -> GuestTask {
                 co_await ctx.compute(st.delays[0] + 1);
                 co_await ctx.store<std::uint64_t>(st.x, 42);
                 co_await ctx.store<std::uint64_t>(st.y, 1);
             },
             [](ThreadContext &ctx,
                const LitmusState &st) -> GuestTask {
                 co_await ctx.compute(st.delays[1] + 1);
                 const auto r0 =
                     co_await ctx.load<std::uint64_t>(st.y);
                 const auto r1 =
                     co_await ctx.load<std::uint64_t>(st.x);
                 co_await ctx.store<std::uint64_t>(st.out, r0);
                 co_await ctx.store<std::uint64_t>(st.out + 8, r1);
             }},
            {p.p0, p.p1}, rng);
        ASSERT_FALSE(regs[0] == 1 && regs[1] == 0)
            << "MP forbidden outcome: saw flag but stale data, "
               "iteration " << iter;
        flag_seen += (regs[0] == 1);
    }
    EXPECT_GT(flag_seen, 0) << "reader never observed the flag";
}

TEST_P(Litmus, LoadBufferingForbiddenUnderSC)
{
    // T0: r0=x; y=1.   T1: r1=y; x=1.   Forbidden: r0==1 && r1==1.
    const auto p = GetParam();
    Random rng(0x1b);
    LitmusRunner runner(p.proto);
    for (int iter = 0; iter < 60; ++iter) {
        auto regs = runner.run(
            {[](ThreadContext &ctx,
                const LitmusState &st) -> GuestTask {
                 co_await ctx.compute(st.delays[0] + 1);
                 const auto r0 =
                     co_await ctx.load<std::uint64_t>(st.x);
                 co_await ctx.store<std::uint64_t>(st.y, 1);
                 co_await ctx.store<std::uint64_t>(st.out, r0);
             },
             [](ThreadContext &ctx,
                const LitmusState &st) -> GuestTask {
                 co_await ctx.compute(st.delays[1] + 1);
                 const auto r1 =
                     co_await ctx.load<std::uint64_t>(st.y);
                 co_await ctx.store<std::uint64_t>(st.x, 1);
                 co_await ctx.store<std::uint64_t>(st.out + 8, r1);
             }},
            {p.p0, p.p1}, rng);
        ASSERT_FALSE(regs[0] == 1 && regs[1] == 1)
            << "LB forbidden outcome (1,1) at iteration " << iter;
    }
}

TEST_P(Litmus, CoherentReadReadNeverGoesBackwards)
{
    // T0: x=1; x=2.   T1: r0=x; r1=x.   Forbidden: r0==2 && r1==1
    // (and r0==1 && ... is fine; values may only move forward).
    const auto p = GetParam();
    Random rng(0xc0);
    LitmusRunner runner(p.proto);
    for (int iter = 0; iter < 60; ++iter) {
        auto regs = runner.run(
            {[](ThreadContext &ctx,
                const LitmusState &st) -> GuestTask {
                 co_await ctx.compute(st.delays[0] + 1);
                 co_await ctx.store<std::uint64_t>(st.x, 1);
                 co_await ctx.store<std::uint64_t>(st.x, 2);
             },
             [](ThreadContext &ctx,
                const LitmusState &st) -> GuestTask {
                 co_await ctx.compute(st.delays[1] + 1);
                 const auto r0 =
                     co_await ctx.load<std::uint64_t>(st.x);
                 const auto r1 =
                     co_await ctx.load<std::uint64_t>(st.x);
                 co_await ctx.store<std::uint64_t>(st.out, r0);
                 co_await ctx.store<std::uint64_t>(st.out + 8, r1);
             }},
            {p.p0, p.p1}, rng);
        ASSERT_FALSE(regs[0] == 2 && regs[1] == 1)
            << "CoRR violation: reads went backwards, iteration "
            << iter;
    }
}

INSTANTIATE_TEST_SUITE_P(
    ProtocolsByPlacement, Litmus,
    ::testing::ValuesIn(litmusParams()),
    [](const ::testing::TestParamInfo<LitmusParam> &info) {
        return std::string(coherence::protocolName(
                   info.param.proto)) +
               "_" + info.param.name;
    });

class LitmusIriw
    : public ::testing::TestWithParam<coherence::Protocol>
{};

TEST_P(LitmusIriw, WriteAtomicityAcrossFourObservers)
{
    // T0: x=1.  T1: y=1.  T2: r0=x; r1=y.  T3: r2=y; r3=x.
    // Forbidden under SC: r0==1 && r1==0 && r2==1 && r3==0
    // (the two observers disagree on the order of the writes).
    Random rng(0x124);
    LitmusRunner runner(GetParam());
    for (int iter = 0; iter < 60; ++iter) {
        // Mix placements: writers on CPU+MTTOP, readers on both too.
        auto regs = runner.run(
            {[](ThreadContext &ctx,
                const LitmusState &st) -> GuestTask {
                 co_await delayedStore(ctx, st.delays[0], st.x, 1);
             },
             [](ThreadContext &ctx,
                const LitmusState &st) -> GuestTask {
                 co_await delayedStore(ctx, st.delays[1], st.y, 1);
             },
             [](ThreadContext &ctx,
                const LitmusState &st) -> GuestTask {
                 co_await ctx.compute(st.delays[2] + 1);
                 const auto r0 =
                     co_await ctx.load<std::uint64_t>(st.x);
                 const auto r1 =
                     co_await ctx.load<std::uint64_t>(st.y);
                 co_await ctx.store<std::uint64_t>(st.out, r0);
                 co_await ctx.store<std::uint64_t>(st.out + 8, r1);
             },
             [](ThreadContext &ctx,
                const LitmusState &st) -> GuestTask {
                 co_await ctx.compute(st.delays[3] + 1);
                 const auto r2 =
                     co_await ctx.load<std::uint64_t>(st.y);
                 const auto r3 =
                     co_await ctx.load<std::uint64_t>(st.x);
                 co_await ctx.store<std::uint64_t>(st.out + 16, r2);
                 co_await ctx.store<std::uint64_t>(st.out + 24, r3);
             }},
            {Place::Cpu, Place::Mttop, Place::Cpu, Place::Mttop},
            rng);
        ASSERT_FALSE(regs[0] == 1 && regs[1] == 0 && regs[2] == 1 &&
                     regs[3] == 0)
            << "IRIW violation: observers saw the writes in "
               "opposite orders, iteration " << iter;
    }
}

INSTANTIATE_TEST_SUITE_P(Protocols, LitmusIriw,
                         ::testing::ValuesIn(test::testProtocols()),
                         test::ProtocolParamName{});

} // namespace
} // namespace ccsvm::system
