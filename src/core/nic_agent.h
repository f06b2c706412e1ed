#pragma once

#include <cstdint>

#include "core/detect/interswitch.h"
#include "net/host.h"

namespace netseer::core {

/// NetSeer's SmartNIC role (§4 "NIC"): the host end of the edge link, so
/// the ToR's inter-switch detection covers that link too. Uplink frames
/// carry consecutive IDs for the ToR's gap detector; downlink frames lose
/// theirs here, and a gap sends `notify_copies` loss notifications to the
/// ToR, which recovers the lost flows from its ring buffer and reports
/// them. A notification from the ToR about the uplink is consumed: the
/// host keeps no ring and has no report path, so nothing is recovered.
class NetSeerNicAgent final : public net::NicAgent {
 public:
  explicit NetSeerNicAgent(const InterSwitchConfig& config = {})
      : notify_copies_(config.notify_copies), rx_(config) {}

  void on_tx(net::Host& /*host*/, packet::Packet& pkt) override { pkt.seq_tag = next_seq_++; }

  bool on_rx(net::Host& host, packet::Packet& pkt) override {
    if (const auto gap = rx_.on_rx(pkt)) {
      for (int copy = 0; copy < notify_copies_; ++copy) {
        host.send(make_loss_notification(gap->start, gap->end,
                                         static_cast<std::uint8_t>(copy)));
      }
    }
    return pkt.kind != packet::PacketKind::kLossNotify;
  }

  [[nodiscard]] const InterSwitchRx& rx_module() const { return rx_; }

 private:
  int notify_copies_;
  std::uint32_t next_seq_ = 0;
  InterSwitchRx rx_;
};

}  // namespace netseer::core
