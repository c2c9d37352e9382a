#include "coherence/types.hh"

#include <algorithm>
#include <cstring>

#include "base/logging.hh"
#include "mem/phys_mem.hh"

namespace ccsvm::coherence
{

const char *
cohStateName(CohState s)
{
    switch (s) {
      case CohState::I: return "I";
      case CohState::S: return "S";
      case CohState::E: return "E";
      case CohState::M: return "M";
      case CohState::O: return "O";
    }
    return "?";
}

const char *
dirStateName(DirState s)
{
    switch (s) {
      case DirState::S: return "S";
      case DirState::X: return "X";
      case DirState::O: return "O";
    }
    return "?";
}

const char *
regionAttrName(RegionAttr a)
{
    switch (a) {
      case RegionAttr::Coherent: return "coherent";
      case RegionAttr::Bypass: return "bypass";
      case RegionAttr::ProtocolOverride: return "override";
    }
    return "?";
}

namespace
{

/** The value an atomic @p op leaves in place of @p old_val. */
std::uint64_t
amoApply(AmoOp op, std::uint64_t old_val, std::uint64_t operand,
         std::uint64_t operand2)
{
    switch (op) {
      case AmoOp::Add:
        return old_val + operand;
      case AmoOp::Inc:
        return old_val + 1;
      case AmoOp::Dec:
        return old_val - 1;
      case AmoOp::Cas:
        return old_val == operand ? operand2 : old_val;
      case AmoOp::Exch:
        return operand;
      case AmoOp::Min:
        return std::min<std::int64_t>(
            static_cast<std::int64_t>(old_val),
            static_cast<std::int64_t>(operand));
      case AmoOp::Max:
        return std::max<std::int64_t>(
            static_cast<std::int64_t>(old_val),
            static_cast<std::int64_t>(operand));
    }
    ccsvm_panic("unknown AMO op %d", static_cast<int>(op));
}

} // namespace

std::uint64_t
ScalarOp::applyTo(std::uint8_t *bytes) const
{
    std::uint64_t old_val = 0;
    std::memcpy(&old_val, bytes, size);
    switch (kind) {
      case Kind::Read:
        return old_val;
      case Kind::Write:
        std::memcpy(bytes, &wdata, size);
        return 0;
      case Kind::Amo: {
        const std::uint64_t new_val =
            amoApply(amoOp, old_val, operand, operand2);
        std::memcpy(bytes, &new_val, size);
        return old_val;
      }
    }
    ccsvm_panic("unknown scalar op kind %d", static_cast<int>(kind));
}

std::uint64_t
ScalarOp::applyTo(mem::PhysMem &phys, Addr pa) const
{
    std::uint8_t bytes[8];
    phys.read(pa, bytes, size);
    const std::uint64_t v = applyTo(bytes);
    if (writes())
        phys.write(pa, bytes, size);
    return v;
}

} // namespace ccsvm::coherence
