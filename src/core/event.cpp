#include "core/event.h"

#include <algorithm>
#include <cstdio>

namespace netseer::core {

const char* to_string(EventType type) {
  switch (type) {
    case EventType::kDrop: return "drop";
    case EventType::kCongestion: return "congestion";
    case EventType::kPathChange: return "path-change";
    case EventType::kPause: return "pause";
    case EventType::kAclDrop: return "acl-drop";
  }
  return "?";
}

namespace {
void put_u16(std::byte* out, std::uint16_t v) {
  out[0] = static_cast<std::byte>(v >> 8);
  out[1] = static_cast<std::byte>(v);
}
void put_u32(std::byte* out, std::uint32_t v) {
  put_u16(out, static_cast<std::uint16_t>(v >> 16));
  put_u16(out + 2, static_cast<std::uint16_t>(v));
}
std::uint16_t get_u16(const std::byte* in) {
  return static_cast<std::uint16_t>((std::uint16_t(in[0]) << 8) | std::uint16_t(in[1]));
}
std::uint32_t get_u32(const std::byte* in) {
  return (std::uint32_t(get_u16(in)) << 16) | get_u16(in + 2);
}
}  // namespace

std::array<std::byte, FlowEvent::kWireSize> FlowEvent::serialize() const noexcept {
  std::array<std::byte, kWireSize> raw{};
  raw[0] = static_cast<std::byte>(type);
  const auto flow_bytes = flow.packed();
  std::copy(flow_bytes.begin(), flow_bytes.end(), raw.begin() + 1);
  put_u16(raw.data() + 14, counter);
  put_u32(raw.data() + 16, flow_hash);

  std::byte* detail = raw.data() + 20;
  switch (type) {
    case EventType::kDrop:
      detail[0] = static_cast<std::byte>(ingress_port);
      detail[1] = static_cast<std::byte>(egress_port);
      detail[2] = static_cast<std::byte>(drop_code);
      break;
    case EventType::kCongestion:
      detail[0] = static_cast<std::byte>(egress_port);
      detail[1] = static_cast<std::byte>(queue);
      put_u16(detail + 2, queue_latency_us);
      break;
    case EventType::kPathChange:
      detail[0] = static_cast<std::byte>(ingress_port);
      detail[1] = static_cast<std::byte>(egress_port);
      break;
    case EventType::kPause:
      detail[0] = static_cast<std::byte>(egress_port);
      detail[1] = static_cast<std::byte>(queue);
      break;
    case EventType::kAclDrop:
      put_u16(detail, acl_rule_id);
      break;
  }
  return raw;
}

std::optional<FlowEvent> FlowEvent::parse(std::span<const std::byte, kWireSize> raw) noexcept {
  FlowEvent ev;
  const auto type_byte = static_cast<std::uint8_t>(raw[0]);
  if (type_byte < 1 || type_byte > 5) return std::nullopt;
  ev.type = static_cast<EventType>(type_byte);

  std::array<std::byte, packet::FlowKey::kPackedSize> flow_bytes{};
  std::copy(raw.begin() + 1, raw.begin() + 14, flow_bytes.begin());
  ev.flow = packet::FlowKey::from_packed(flow_bytes);
  ev.counter = get_u16(raw.data() + 14);
  ev.flow_hash = get_u32(raw.data() + 16);

  const std::byte* detail = raw.data() + 20;
  switch (ev.type) {
    case EventType::kDrop:
      ev.ingress_port = static_cast<std::uint8_t>(detail[0]);
      ev.egress_port = static_cast<std::uint8_t>(detail[1]);
      ev.drop_code = static_cast<std::uint8_t>(detail[2]);
      break;
    case EventType::kCongestion:
      ev.egress_port = static_cast<std::uint8_t>(detail[0]);
      ev.queue = static_cast<std::uint8_t>(detail[1]);
      ev.queue_latency_us = get_u16(detail + 2);
      break;
    case EventType::kPathChange:
      ev.ingress_port = static_cast<std::uint8_t>(detail[0]);
      ev.egress_port = static_cast<std::uint8_t>(detail[1]);
      break;
    case EventType::kPause:
      ev.egress_port = static_cast<std::uint8_t>(detail[0]);
      ev.queue = static_cast<std::uint8_t>(detail[1]);
      break;
    case EventType::kAclDrop:
      ev.acl_rule_id = get_u16(detail);
      break;
  }
  return ev;
}

std::uint32_t FlowEvent::detail_word() const noexcept {
  switch (type) {
    case EventType::kDrop:
      return (std::uint32_t{ingress_port} << 16) | (std::uint32_t{egress_port} << 8) |
             drop_code;
    case EventType::kCongestion:
      // Latency is a sample, not identity: congestion on the same queue
      // is the same event regardless of how long the queue was.
      return (std::uint32_t{egress_port} << 8) | queue;
    case EventType::kPathChange:
      return (std::uint32_t{ingress_port} << 8) | egress_port;
    case EventType::kPause:
      return (std::uint32_t{egress_port} << 8) | queue;
    case EventType::kAclDrop:
      return acl_rule_id;
  }
  return 0;
}

std::string FlowEvent::to_string() const {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "%s flow=%s n=%u sw=%u in=%u out=%u q=%u lat=%uus code=%u",
                core::to_string(type), flow.to_string().c_str(), counter, switch_id,
                ingress_port, egress_port, queue, queue_latency_us, drop_code);
  return buf;
}

FlowEvent make_event(EventType type, const packet::FlowKey& flow, util::NodeId switch_id,
                     util::SimTime now) {
  FlowEvent ev;
  ev.type = type;
  ev.flow = flow;
  ev.flow_hash = flow.crc32();
  ev.switch_id = switch_id;
  ev.detected_at = now;
  return ev;
}

std::uint16_t to_latency_us(util::SimDuration delay) noexcept {
  const auto us = delay / util::kMicrosecond;
  return us > 0xffff ? 0xffff : static_cast<std::uint16_t>(us);
}

}  // namespace netseer::core
