#include "pdp/types.h"

namespace netseer::pdp {

const char* to_string(DropReason reason) {
  switch (reason) {
    case DropReason::kNone: return "none";
    case DropReason::kRouteMiss: return "route-miss";
    case DropReason::kAclDeny: return "acl-deny";
    case DropReason::kTtlExpired: return "ttl-expired";
    case DropReason::kMtuExceeded: return "mtu-exceeded";
    case DropReason::kParserError: return "parser-error";
    case DropReason::kCongestion: return "congestion";
    case DropReason::kLinkLoss: return "link-loss";
    case DropReason::kCorruption: return "corruption";
  }
  return "?";
}

}  // namespace netseer::pdp
