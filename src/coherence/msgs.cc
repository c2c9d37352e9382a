#include "coherence/msgs.hh"

namespace ccsvm::coherence
{

const char *
msgTypeName(MsgType t)
{
    switch (t) {
      case MsgType::GetS: return "GetS";
      case MsgType::GetM: return "GetM";
      case MsgType::PutS: return "PutS";
      case MsgType::PutOwned: return "PutOwned";
      case MsgType::FwdGetS: return "FwdGetS";
      case MsgType::FwdGetM: return "FwdGetM";
      case MsgType::Inv: return "Inv";
      case MsgType::Recall: return "Recall";
      case MsgType::DataS: return "DataS";
      case MsgType::DataE: return "DataE";
      case MsgType::DataM: return "DataM";
      case MsgType::GrantM: return "GrantM";
      case MsgType::InvAck: return "InvAck";
      case MsgType::PutAck: return "PutAck";
      case MsgType::RecallAck: return "RecallAck";
      case MsgType::RecallData: return "RecallData";
      case MsgType::Unblock: return "Unblock";
      case MsgType::Bypass: return "Bypass";
      case MsgType::BypassResp: return "BypassResp";
    }
    return "?";
}

} // namespace ccsvm::coherence
