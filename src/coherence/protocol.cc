#include "coherence/protocol.hh"

#include <string>

#include "base/enum_names.hh"
#include "base/logging.hh"

namespace ccsvm::coherence
{

namespace
{

class MsiPolicy final : public ProtocolPolicy
{
  public:
    Protocol kind() const override { return Protocol::MSI; }
    bool hasExclusiveState() const override { return false; }
    bool allowsDirtySharing() const override { return false; }
};

class MesiPolicy final : public ProtocolPolicy
{
  public:
    Protocol kind() const override { return Protocol::MESI; }
    bool hasExclusiveState() const override { return true; }
    bool allowsDirtySharing() const override { return false; }
};

class MoesiPolicy final : public ProtocolPolicy
{
  public:
    Protocol kind() const override { return Protocol::MOESI; }
    bool hasExclusiveState() const override { return true; }
    bool allowsDirtySharing() const override { return true; }
};

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
    static const MsiPolicy msi;
    static const MesiPolicy mesi;
    static const MoesiPolicy moesi;
    switch (p) {
      case Protocol::MSI: return msi;
      case Protocol::MESI: return mesi;
      case Protocol::MOESI: return moesi;
    }
    ccsvm_panic("unknown protocol %d", static_cast<int>(p));
}

} // namespace ccsvm::coherence
