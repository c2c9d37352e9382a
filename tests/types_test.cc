/**
 * @file
 * Name round-trip tests for the protocol-wide enums: every CohState,
 * DirState, MsgType and Protocol value must map to a unique,
 * non-placeholder name, and Protocol names must parse back to the
 * value they came from. Guards the stats/driver/bench surfaces that
 * print these names against a silently-added unnamed enum value.
 * Also pins what one scalar access (ScalarOp) does to memory bytes.
 */

#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <set>
#include <string>
#include <vector>

#include "coherence/msgs.hh"
#include "coherence/protocol.hh"
#include "coherence/types.hh"
#include "mem/phys_mem.hh"

namespace ccsvm::coherence
{
namespace
{

TEST(Types, CohStateNamesCoverEveryValue)
{
    const CohState all[] = {CohState::I, CohState::S, CohState::E,
                            CohState::M, CohState::O};
    std::set<std::string> seen;
    for (const CohState s : all) {
        const std::string name = cohStateName(s);
        EXPECT_NE(name, "?") << "unnamed CohState "
                             << static_cast<int>(s);
        seen.insert(name);
    }
    EXPECT_EQ(seen.size(), std::size(all));
    // The names are a public surface (asserts, test diagnostics).
    EXPECT_STREQ(cohStateName(CohState::I), "I");
    EXPECT_STREQ(cohStateName(CohState::S), "S");
    EXPECT_STREQ(cohStateName(CohState::E), "E");
    EXPECT_STREQ(cohStateName(CohState::M), "M");
    EXPECT_STREQ(cohStateName(CohState::O), "O");
}

TEST(Types, DirStateNamesCoverEveryValue)
{
    const DirState all[] = {DirState::S, DirState::X, DirState::O};
    std::set<std::string> seen;
    for (const DirState s : all) {
        const std::string name = dirStateName(s);
        EXPECT_NE(name, "?") << "unnamed DirState "
                             << static_cast<int>(s);
        seen.insert(name);
    }
    EXPECT_EQ(seen.size(), std::size(all));
    EXPECT_STREQ(dirStateName(DirState::S), "S");
    EXPECT_STREQ(dirStateName(DirState::X), "X");
    EXPECT_STREQ(dirStateName(DirState::O), "O");
}

TEST(Types, MsgTypeNamesCoverEveryValue)
{
    // Walk the whole enum. BypassResp is its last value, and the one
    // after it must be unnamed, so a type appended later fails here
    // until this bound moves with it.
    constexpr int last = static_cast<int>(MsgType::BypassResp);
    std::set<std::string> seen;
    for (int v = 0; v <= last; ++v) {
        const std::string name = msgTypeName(static_cast<MsgType>(v));
        EXPECT_NE(name, "?") << "unnamed MsgType " << v;
        seen.insert(name);
    }
    EXPECT_EQ(seen.size(), static_cast<std::size_t>(last + 1));
    EXPECT_STREQ(msgTypeName(static_cast<MsgType>(last + 1)), "?");
}

/** The value an atomic leaves in place of @p old_val, written out
 * here independently of ScalarOp. */
std::uint64_t
referenceAmo(AmoOp op, std::uint64_t old_val, std::uint64_t operand,
             std::uint64_t operand2)
{
    const auto s_old = static_cast<std::int64_t>(old_val);
    const auto s_operand = static_cast<std::int64_t>(operand);
    switch (op) {
      case AmoOp::Add: return old_val + operand;
      case AmoOp::Inc: return old_val + 1;
      case AmoOp::Dec: return old_val - 1;
      case AmoOp::Cas: return old_val == operand ? operand2 : old_val;
      case AmoOp::Exch: return operand;
      case AmoOp::Min:
        return static_cast<std::uint64_t>(s_old < s_operand ? s_old
                                                            : s_operand);
      case AmoOp::Max:
        return static_cast<std::uint64_t>(s_old > s_operand ? s_old
                                                            : s_operand);
    }
    ADD_FAILURE() << "unknown AmoOp " << static_cast<int>(op);
    return 0;
}

TEST(Types, ScalarOpAppliesEveryKindAtEverySize)
{
    using Kind = ScalarOp::Kind;
    const AmoOp amos[] = {AmoOp::Add, AmoOp::Inc, AmoOp::Dec,
                          AmoOp::Cas, AmoOp::Exch, AmoOp::Min,
                          AmoOp::Max};
    constexpr unsigned at = 8; // the access sits between guard bytes
    constexpr std::uint8_t guard = 0xee;
    mem::PhysMem phys(mem::pageBytes);
    const Addr base = 0x100;

    for (const unsigned size : {1u, 2u, 4u, 8u}) {
        const std::uint64_t mask =
            size == 8 ? ~std::uint64_t{0}
                      : (std::uint64_t{1} << (8 * size)) - 1;
        for (const std::uint64_t old_val :
             {std::uint64_t{0x8877665544332211} & mask,
              std::uint64_t{0}}) {
            std::vector<ScalarOp> ops = {
                {.kind = Kind::Read, .size = size},
                {.kind = Kind::Write,
                 .size = size,
                 .wdata = 0xa5a55a5a0ff0f00f},
            };
            // Operands: the old value (a matching CAS, a doubling
            // Add), one past it (a failing CAS), a negative and a
            // small positive bound for Min/Max.
            for (const AmoOp a : amos)
                for (const std::uint64_t operand :
                     {old_val, old_val + 1, std::uint64_t(-5),
                      std::uint64_t{0x7f}})
                    ops.push_back({.kind = Kind::Amo,
                                   .amoOp = a,
                                   .size = size,
                                   .operand = operand,
                                   .operand2 = 0x0123456789abcdef});

            for (const ScalarOp &op : ops) {
                SCOPED_TRACE(testing::Message()
                             << "size " << size << " old " << old_val
                             << " kind " << static_cast<int>(op.kind)
                             << " amo " << static_cast<int>(op.amoOp)
                             << " operand " << op.operand);
                std::uint64_t want_ret = old_val;
                std::uint64_t want_new = old_val;
                if (op.kind == Kind::Write) {
                    want_ret = 0;
                    want_new = op.wdata & mask;
                } else if (op.kind == Kind::Amo) {
                    want_new = referenceAmo(op.amoOp, old_val,
                                            op.operand, op.operand2) &
                               mask;
                }

                std::array<std::uint8_t, 24> buf;
                buf.fill(guard);
                std::memcpy(buf.data() + at, &old_val, size);
                phys.write(base, buf.data(), buf.size());

                EXPECT_EQ(op.applyTo(buf.data() + at), want_ret);
                std::uint64_t got = 0;
                std::memcpy(&got, buf.data() + at, size);
                EXPECT_EQ(got, want_new);
                for (unsigned i = 0; i < buf.size(); ++i) {
                    if (i >= at && i < at + size)
                        continue;
                    EXPECT_EQ(buf[i], guard) << "byte " << i;
                }

                // On physical memory: the same value and bytes.
                EXPECT_EQ(op.applyTo(phys, base + at), want_ret);
                std::array<std::uint8_t, 24> mem_bytes;
                phys.read(base, mem_bytes.data(), mem_bytes.size());
                EXPECT_EQ(mem_bytes, buf);
            }
        }
    }
}

TEST(Types, ProtocolNamesRoundTrip)
{
    const Protocol all[] = {Protocol::MSI, Protocol::MESI,
                            Protocol::MOESI};
    std::set<std::string> seen;
    for (const Protocol p : all) {
        const std::string name = protocolName(p);
        EXPECT_NE(name, "?");
        seen.insert(name);

        Protocol parsed;
        ASSERT_TRUE(protocolFromName(name, parsed))
            << "protocolName(" << name << ") does not parse back";
        EXPECT_EQ(parsed, p);
    }
    EXPECT_EQ(seen.size(), std::size(all));
}

TEST(Types, ProtocolParseIsCaseInsensitiveAndRejectsUnknown)
{
    Protocol p;
    ASSERT_TRUE(protocolFromName("MOESI", p));
    EXPECT_EQ(p, Protocol::MOESI);
    ASSERT_TRUE(protocolFromName("Mesi", p));
    EXPECT_EQ(p, Protocol::MESI);

    EXPECT_FALSE(protocolFromName("", p));
    EXPECT_FALSE(protocolFromName("mosi", p));
    EXPECT_FALSE(protocolFromName("moesi ", p));
}

TEST(Types, PolicyCapabilityMatrix)
{
    // The capability bits ARE the protocol definition; pin them.
    const ProtocolPolicy &msi = protocolPolicy(Protocol::MSI);
    const ProtocolPolicy &mesi = protocolPolicy(Protocol::MESI);
    const ProtocolPolicy &moesi = protocolPolicy(Protocol::MOESI);

    EXPECT_FALSE(msi.hasExclusiveState());
    EXPECT_FALSE(msi.allowsDirtySharing());
    EXPECT_TRUE(mesi.hasExclusiveState());
    EXPECT_FALSE(mesi.allowsDirtySharing());
    EXPECT_TRUE(moesi.hasExclusiveState());
    EXPECT_TRUE(moesi.allowsDirtySharing());

    EXPECT_EQ(msi.soleCopyFill(), MsgType::DataS);
    EXPECT_EQ(mesi.soleCopyFill(), MsgType::DataE);
    EXPECT_EQ(moesi.soleCopyFill(), MsgType::DataE);

    // Owner transitions on a forwarded read follow the directory's
    // pair-wise verdict, not the owner's policy alone.
    EXPECT_EQ(ownerStateOnFwdGetS(CohState::E, true), CohState::S);
    EXPECT_EQ(ownerStateOnFwdGetS(CohState::M, true), CohState::O);
    EXPECT_EQ(ownerStateOnFwdGetS(CohState::O, true), CohState::O);
    EXPECT_EQ(ownerStateOnFwdGetS(CohState::E, false), CohState::S);
    EXPECT_EQ(ownerStateOnFwdGetS(CohState::M, false), CohState::S);
    EXPECT_EQ(ownerStateOnFwdGetS(CohState::O, false), CohState::S);
}

TEST(Types, PairDirtySharingRequiresOAtBothEnds)
{
    // All 9 owner x requestor pairs: dirty sharing only when both
    // clusters run a protocol with the O state (moesi/moesi today).
    for (const Protocol owner : allProtocols) {
        for (const Protocol req : allProtocols) {
            const bool expect = owner == Protocol::MOESI &&
                                req == Protocol::MOESI;
            EXPECT_EQ(pairAllowsDirtySharing(protocolPolicy(owner),
                                             protocolPolicy(req)),
                      expect)
                << protocolName(owner) << "/" << protocolName(req);
        }
    }
}

TEST(Types, ProtocolNameListEnumeratesTheTable)
{
    EXPECT_EQ(protocolNameList(), "msi, mesi, moesi");
    EXPECT_EQ(protocolNameList(" | "), "msi | mesi | moesi");
}

} // namespace
} // namespace ccsvm::coherence
