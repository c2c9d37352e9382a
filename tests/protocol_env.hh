/**
 * @file
 * Protocol selection for value-parametrized test suites.
 *
 * Every suite instantiates all three coherence protocols (msi, mesi,
 * moesi), and every pair-parametrized suite all nine CPU x MTTOP
 * pairings.
 */

#ifndef CCSVM_TESTS_PROTOCOL_ENV_HH
#define CCSVM_TESTS_PROTOCOL_ENV_HH

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "coherence/protocol.hh"

namespace ccsvm::test
{

/** Protocols to instantiate: every one. */
inline const auto &
testProtocols()
{
    return coherence::allProtocols;
}

/** gtest name generator: the protocol's lower-case name. */
struct ProtocolParamName
{
    template <typename ParamType>
    std::string
    operator()(const ::testing::TestParamInfo<ParamType> &info) const
    {
        return coherence::protocolName(info.param);
    }
};

/** A heterogeneous cluster pairing: CPU-cluster protocol first,
 * MTTOP-cluster protocol second. */
using ProtocolPair =
    std::pair<coherence::Protocol, coherence::Protocol>;

/** Every CPU x MTTOP protocol pairing. */
inline std::vector<ProtocolPair>
testProtocolPairs()
{
    std::vector<ProtocolPair> out;
    for (const coherence::Protocol cpu : testProtocols()) {
        for (const coherence::Protocol mttop : testProtocols())
            out.emplace_back(cpu, mttop);
    }
    return out;
}

/** gtest name generator: "<cpu>_<mttop>". */
struct ProtocolPairParamName
{
    template <typename ParamType>
    std::string
    operator()(const ::testing::TestParamInfo<ParamType> &info) const
    {
        return std::string(coherence::protocolName(info.param.first)) +
               "_" + coherence::protocolName(info.param.second);
    }
};

} // namespace ccsvm::test

#endif // CCSVM_TESTS_PROTOCOL_ENV_HH
