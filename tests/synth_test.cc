/**
 * @file
 * Tests for the synthetic coherence-traffic subsystem and the
 * workload registry: golden-model correctness for every pattern
 * under every protocol, the protocol-discriminating stats the
 * patterns exist to produce (migratory writebacks, false-sharing
 * invalidations), and the registry's name/flag bookkeeping.
 */

#include <gtest/gtest.h>

#include <string>

#include "protocol_env.hh"
#include "system/ccsvm_machine.hh"
#include "system/coherence_stats.hh"
#include "workloads/registry.hh"
#include "workloads/synth/synth.hh"

namespace ccsvm::workloads::synth
{
namespace
{

using coherence::Protocol;
using system::dirtyWritebacks;
using system::l1Invalidations;
using test::testProtocols;

/** Small-but-representative parameters: fast to simulate, still
 * multi-chunk so sharers span MTTOP L1s. */
SynthParams
quickParams(Pattern pat)
{
    SynthParams p;
    p.pattern = pat;
    p.iters = 8;
    p.footprintBytes = 8 * 1024;
    return p;
}

class SynthP : public ::testing::TestWithParam<Protocol>
{
  protected:
    /** Run @p p on a fresh machine under the suite's protocol. */
    RunResult
    run(const SynthParams &p) const
    {
        system::CcsvmConfig cfg;
        cfg.protocol = GetParam();
        system::CcsvmMachine m(cfg);
        return synthXthreads(m, p);
    }
};

TEST_P(SynthP, EveryPatternMatchesItsGoldenModel)
{
    // The driver's defaults at --iters 48.
    for (const Pattern pat : allPatterns) {
        SynthParams p;
        p.pattern = pat;
        p.iters = 48;
        const RunResult r = run(p);
        EXPECT_TRUE(r.correct) << patternName(pat);
        EXPECT_GT(r.ticks, 0u) << patternName(pat);
    }
}

TEST_P(SynthP, OddThreadCountsAndDegenerateGeometry)
{
    // prodcons with an odd thread out, migratory alone, one-line
    // false sharing, readmostly with no reads, minimal footprints.
    SynthParams p = quickParams(Pattern::ProdCons);
    p.threads = 5;
    EXPECT_TRUE(run(p).correct);

    p = quickParams(Pattern::Migratory);
    p.threads = 1;
    EXPECT_TRUE(run(p).correct);

    p = quickParams(Pattern::FalseShare);
    p.threads = 3;
    p.sharingDegree = 1;
    EXPECT_TRUE(run(p).correct);

    p = quickParams(Pattern::ReadMostly);
    p.readsPerWrite = 0;
    p.sharingDegree = 1;
    EXPECT_TRUE(run(p).correct);

    p = quickParams(Pattern::PtrChase);
    p.footprintBytes = 512;
    p.strideBytes = 8;
    EXPECT_TRUE(run(p).correct);
}

INSTANTIATE_TEST_SUITE_P(Protocols, SynthP,
                         ::testing::ValuesIn(testProtocols()),
                         test::ProtocolParamName{});

/** Run @p pat on a fresh machine under @p proto and hand back the
 * machine's stats via the out-params. */
RunResult
runWithStats(Pattern pat, Protocol proto, unsigned iters,
             std::uint64_t &wb, std::uint64_t &invs)
{
    system::CcsvmConfig cfg;
    cfg.protocol = proto;
    system::CcsvmMachine m(cfg);
    SynthParams p;
    p.pattern = pat;
    p.iters = iters;
    const RunResult r = synthXthreads(m, p);
    wb = dirtyWritebacks(m);
    invs = l1Invalidations(m);
    return r;
}

TEST(SynthDiscrimination, MigratoryWritebacksOrderMsiMesiMoesi)
{
    // Migratory data is the pattern the O state exists for: every
    // hand-off reads a dirty line, which MSI and MESI must write
    // back to the home while MOESI's owner keeps it dirty-shared.
    std::uint64_t wb_msi = 0, wb_mesi = 0, wb_moesi = 0, invs = 0;
    ASSERT_TRUE(runWithStats(Pattern::Migratory, Protocol::MSI, 48,
                             wb_msi, invs)
                    .correct);
    ASSERT_TRUE(runWithStats(Pattern::Migratory, Protocol::MESI, 48,
                             wb_mesi, invs)
                    .correct);
    ASSERT_TRUE(runWithStats(Pattern::Migratory, Protocol::MOESI, 48,
                             wb_moesi, invs)
                    .correct);
    EXPECT_GT(wb_msi, wb_moesi)
        << "MOESI must pay strictly fewer dirty writebacks than MSI";
    EXPECT_GE(wb_msi, wb_mesi);
    EXPECT_GE(wb_mesi, wb_moesi);
    // The hand-offs happen regardless of protocol — hundreds of
    // them — so MOESI's advantage must be large, not incidental.
    EXPECT_GE(wb_msi, wb_moesi + 100);
}

TEST(SynthDiscrimination, FalseSharingInvalidationsDwarfPadded)
{
    // Same store count, same thread placement; the only difference
    // is whether the stores land on private lines or shared ones.
    for (const Protocol proto : testProtocols()) {
        std::uint64_t wb = 0, invs_false = 0, invs_padded = 0;
        ASSERT_TRUE(runWithStats(Pattern::FalseShare, proto, 64, wb,
                                 invs_false)
                        .correct);
        ASSERT_TRUE(runWithStats(Pattern::Padded, proto, 64, wb,
                                 invs_padded)
                        .correct);
        EXPECT_GE(invs_false, 10 * invs_padded)
            << coherence::protocolName(proto);
        EXPECT_GE(invs_false, 40u) << coherence::protocolName(proto);
    }
}

TEST(SynthDiscrimination, PrivatePatternsAreProtocolIndifferent)
{
    // stream touches no shared data, so no protocol should pay
    // sharing writebacks or meaningful invalidations for it.
    for (const Protocol proto : testProtocols()) {
        system::CcsvmConfig cfg;
        cfg.protocol = proto;
        system::CcsvmMachine m(cfg);
        SynthParams p;
        p.pattern = Pattern::Stream;
        p.iters = 4;
        p.footprintBytes = 8 * 1024;
        ASSERT_TRUE(synthXthreads(m, p).correct);
        EXPECT_LE(m.caches().bankTotal(".sharingWb"), 16u)
            << coherence::protocolName(proto);
    }
}

TEST(Registry, EveryPaperWorkloadAndPatternIsRegistered)
{
    const auto &reg = WorkloadRegistry::instance();
    for (const char *name : {"matmul", "apsp", "barneshut", "spmm"})
        EXPECT_NE(reg.find(name), nullptr) << name;
    for (const Pattern p : allPatterns) {
        const std::string name =
            std::string("synth:") + patternName(p);
        const WorkloadEntry *e = reg.find(name);
        ASSERT_NE(e, nullptr) << name;
        EXPECT_FALSE(e->summary.empty());
        EXPECT_TRUE(e->consumesFlag("--iters")) << name;
    }
    EXPECT_NE(reg.find("replay"), nullptr);
    EXPECT_EQ(reg.entries().size(), 5 + allPatterns.size());
    EXPECT_EQ(reg.find("nope"), nullptr);
    EXPECT_EQ(reg.find(""), nullptr);
}

TEST(Registry, NameListMatchesEntries)
{
    const auto &reg = WorkloadRegistry::instance();
    const std::string list = reg.nameList(",");
    std::size_t commas = 0;
    for (const char c : list)
        commas += c == ',';
    EXPECT_EQ(commas + 1, reg.entries().size());
    for (const auto &e : reg.entries())
        EXPECT_NE(list.find(e.name), std::string::npos) << e.name;
}

TEST(Registry, FlagBookkeepingDistinguishesWorkloads)
{
    const auto &reg = WorkloadRegistry::instance();
    const WorkloadEntry *matmul = reg.find("matmul");
    ASSERT_NE(matmul, nullptr);
    EXPECT_TRUE(matmul->consumesFlag("--n"));
    EXPECT_TRUE(matmul->consumesFlag("--seed"));
    EXPECT_FALSE(matmul->consumesFlag("--iters"));

    const WorkloadEntry *ptrchase = reg.find("synth:ptrchase");
    ASSERT_NE(ptrchase, nullptr);
    EXPECT_TRUE(ptrchase->consumesFlag("--seed"));
    EXPECT_TRUE(ptrchase->consumesFlag("--footprint-kb"));
    EXPECT_FALSE(ptrchase->consumesFlag("--rpw"));
}

TEST(Registry, EntriesRunWorkloadsOnACallerMachine)
{
    const auto &reg = WorkloadRegistry::instance();
    const WorkloadEntry *e = reg.find("synth:padded");
    ASSERT_NE(e, nullptr);
    system::CcsvmMachine m;
    WorkloadParams p;
    p.synth.iters = 4;
    const RunResult r = e->run(m, p);
    EXPECT_TRUE(r.correct);
    EXPECT_GT(r.ticks, 0u);
}

} // namespace
} // namespace ccsvm::workloads::synth
