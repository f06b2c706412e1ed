#include "core/event.h"

#include <gtest/gtest.h>

namespace netseer::core {
namespace {

packet::FlowKey sample_flow() {
  return packet::FlowKey{packet::Ipv4Addr::from_octets(10, 0, 1, 2),
                         packet::Ipv4Addr::from_octets(10, 0, 2, 3), 6, 40000, 443};
}

TEST(FlowEvent, WireSizeIs24Bytes) {
  static_assert(FlowEvent::kWireSize == 24);
  const auto ev = make_event(EventType::kDrop, sample_flow(), 5, 100);
  EXPECT_EQ(ev.serialize().size(), 24u);
}

TEST(FlowEvent, MakeEventFillsCommonFields) {
  const auto ev = make_event(EventType::kCongestion, sample_flow(), 7, 1234);
  EXPECT_EQ(ev.type, EventType::kCongestion);
  EXPECT_EQ(ev.flow, sample_flow());
  EXPECT_EQ(ev.flow_hash, sample_flow().crc32());
  EXPECT_EQ(ev.switch_id, 7u);
  EXPECT_EQ(ev.detected_at, 1234);
  EXPECT_EQ(ev.counter, 1);
}

TEST(FlowEvent, DropRoundTrip) {
  auto ev = make_event(EventType::kDrop, sample_flow(), 5, 100);
  ev.counter = 321;
  ev.ingress_port = 3;
  ev.egress_port = 9;
  ev.drop_code = 4;
  const auto parsed = FlowEvent::parse(ev.serialize());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->type, EventType::kDrop);
  EXPECT_EQ(parsed->flow, ev.flow);
  EXPECT_EQ(parsed->counter, 321);
  EXPECT_EQ(parsed->flow_hash, ev.flow_hash);
  EXPECT_EQ(parsed->ingress_port, 3);
  EXPECT_EQ(parsed->egress_port, 9);
  EXPECT_EQ(parsed->drop_code, 4);
}

TEST(FlowEvent, CongestionRoundTrip) {
  auto ev = make_event(EventType::kCongestion, sample_flow(), 5, 100);
  ev.egress_port = 12;
  ev.queue = 3;
  ev.queue_latency_us = 4567;
  const auto parsed = FlowEvent::parse(ev.serialize());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->egress_port, 12);
  EXPECT_EQ(parsed->queue, 3);
  EXPECT_EQ(parsed->queue_latency_us, 4567);
}

TEST(FlowEvent, PathChangeRoundTrip) {
  auto ev = make_event(EventType::kPathChange, sample_flow(), 5, 100);
  ev.ingress_port = 1;
  ev.egress_port = 2;
  const auto parsed = FlowEvent::parse(ev.serialize());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->type, EventType::kPathChange);
  EXPECT_EQ(parsed->ingress_port, 1);
  EXPECT_EQ(parsed->egress_port, 2);
}

TEST(FlowEvent, PauseRoundTrip) {
  auto ev = make_event(EventType::kPause, sample_flow(), 5, 100);
  ev.egress_port = 30;
  ev.queue = 7;
  const auto parsed = FlowEvent::parse(ev.serialize());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->type, EventType::kPause);
  EXPECT_EQ(parsed->egress_port, 30);
  EXPECT_EQ(parsed->queue, 7);
}

TEST(FlowEvent, AclDropRoundTrip) {
  auto ev = make_event(EventType::kAclDrop, sample_flow(), 5, 100);
  ev.acl_rule_id = 0xbeef;
  const auto parsed = FlowEvent::parse(ev.serialize());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->type, EventType::kAclDrop);
  EXPECT_EQ(parsed->acl_rule_id, 0xbeef);
}

TEST(FlowEvent, ParseRejectsBadType) {
  auto raw = make_event(EventType::kDrop, sample_flow(), 5, 100).serialize();
  raw[0] = std::byte{0};
  EXPECT_FALSE(FlowEvent::parse(raw).has_value());
  raw[0] = std::byte{99};
  EXPECT_FALSE(FlowEvent::parse(raw).has_value());
}

TEST(FlowEvent, LatencySaturates) {
  EXPECT_EQ(to_latency_us(util::microseconds(100)), 100);
  EXPECT_EQ(to_latency_us(util::seconds(10)), 0xffff);
  EXPECT_EQ(to_latency_us(0), 0);
  EXPECT_EQ(to_latency_us(999), 0);  // sub-microsecond truncates
}

TEST(EventBatch, WireSizeAccounting) {
  EventBatch batch;
  EXPECT_EQ(batch.wire_size(), EventBatch::kHeaderSize);
  batch.events.push_back(make_event(EventType::kDrop, sample_flow(), 5, 100));
  batch.events.push_back(make_event(EventType::kPause, sample_flow(), 5, 100));
  EXPECT_EQ(batch.wire_size(), EventBatch::kHeaderSize + 2 * FlowEvent::kWireSize);
}

TEST(FlowEvent, ToStringContainsType) {
  const auto ev = make_event(EventType::kCongestion, sample_flow(), 5, 100);
  EXPECT_NE(ev.to_string().find("congestion"), std::string::npos);
}

}  // namespace
}  // namespace netseer::core
