#pragma once

#include <cstdint>

#include "core/event.h"
#include "net/mgmt.h"

namespace netseer::core {

/// Message exchanged between a switch CPU and the backend over the
/// management network. Data segments carry an event batch; acks carry
/// the receiver's cumulative sequence.
struct ReportMsg {
  enum class Kind : std::uint8_t { kData, kAck };
  Kind kind = Kind::kData;
  std::uint32_t seq = 0;  // data: segment seq. ack: cumulative (next expected).
  EventBatch batch;       // kData only

  /// Bytes on the management network of a data segment carrying `batch`:
  /// the batch plus seq, kind and TCP/IP-ish framing.
  [[nodiscard]] static std::size_t data_wire_size(const EventBatch& batch) {
    return batch.wire_size() + 40;
  }
};

using ReportChannel = net::MgmtChannel<ReportMsg>;

}  // namespace netseer::core
