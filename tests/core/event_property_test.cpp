// Property test: 24-byte event records round-trip for randomized field
// values across every event type (TEST_P over type).
#include <gtest/gtest.h>

#include "core/event.h"
#include "util/rng.h"

namespace netseer::core {
namespace {

class EventRoundTrip : public ::testing::TestWithParam<EventType> {};

TEST_P(EventRoundTrip, RandomizedFieldsSurviveSerialization) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 1009);
  for (int i = 0; i < 500; ++i) {
    FlowEvent ev;
    ev.type = GetParam();
    ev.flow.src.value = static_cast<std::uint32_t>(rng.next());
    ev.flow.dst.value = static_cast<std::uint32_t>(rng.next());
    ev.flow.proto = static_cast<std::uint8_t>(rng.uniform(256));
    ev.flow.sport = static_cast<std::uint16_t>(rng.next());
    ev.flow.dport = static_cast<std::uint16_t>(rng.next());
    ev.counter = static_cast<std::uint16_t>(rng.next());
    ev.flow_hash = static_cast<std::uint32_t>(rng.next());
    ev.ingress_port = static_cast<std::uint8_t>(rng.uniform(256));
    ev.egress_port = static_cast<std::uint8_t>(rng.uniform(256));
    ev.queue = static_cast<std::uint8_t>(rng.uniform(8));
    ev.queue_latency_us = static_cast<std::uint16_t>(rng.next());
    ev.drop_code = static_cast<std::uint8_t>(rng.uniform(10));
    ev.acl_rule_id = static_cast<std::uint16_t>(rng.next());

    const auto parsed = FlowEvent::parse(ev.serialize());
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->type, ev.type);
    EXPECT_EQ(parsed->flow, ev.flow);
    EXPECT_EQ(parsed->counter, ev.counter);
    EXPECT_EQ(parsed->flow_hash, ev.flow_hash);
    // Type-specific fields survive; fields outside the type's detail
    // layout legitimately reset — reserialize to compare canonical forms.
    EXPECT_EQ(parsed->serialize(), ev.serialize());
  }
}

INSTANTIATE_TEST_SUITE_P(AllTypes, EventRoundTrip,
                         ::testing::Values(EventType::kDrop, EventType::kCongestion,
                                           EventType::kPathChange, EventType::kPause,
                                           EventType::kAclDrop),
                         [](const auto& info) {
                           std::string name = to_string(info.param);
                           for (auto& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

}  // namespace
}  // namespace netseer::core
