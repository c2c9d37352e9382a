#include "coherence/protocol.hh"

#include <algorithm>
#include <string>

#include "base/enum_names.hh"
#include "base/logging.hh"

namespace ccsvm::coherence
{

namespace
{

/** Indexed by Protocol: {kind, E state, O state}. */
constexpr ProtocolPolicy policies[] = {
    {Protocol::MSI, false, false},
    {Protocol::MESI, true, false},
    {Protocol::MOESI, true, true},
};

static_assert(std::size(policies) == allProtocols.size() &&
              std::ranges::all_of(allProtocols, [](Protocol p) {
                  return policies[static_cast<std::size_t>(p)].kind() ==
                         p;
              }));

} // namespace

const char *
protocolName(Protocol p)
{
    switch (p) {
      case Protocol::MSI: return "msi";
      case Protocol::MESI: return "mesi";
      case Protocol::MOESI: return "moesi";
    }
    return "?";
}

std::string
protocolNameList(std::string_view sep)
{
    return enumNameList(allProtocols, protocolName, sep);
}

bool
protocolFromName(std::string_view name, Protocol &out)
{
    return enumFromName(allProtocols, protocolName, name, out);
}

const ProtocolPolicy &
protocolPolicy(Protocol p)
{
    const auto i = static_cast<std::size_t>(p);
    if (i >= std::size(policies))
        ccsvm_panic("unknown protocol %d", static_cast<int>(p));
    return policies[i];
}

} // namespace ccsvm::coherence
