// Satellite: the collector's bounded reorder window. A segment landing
// more than kReorderWindow sequences past the cumulative ack is dropped
// and counted instead of growing PeerState::seen without limit; the
// sender's retransmission redelivers it once the gap closes, so the
// events arrive exactly once, just later.
#include <gtest/gtest.h>

#include <vector>

#include "backend/collector.h"
#include "core/event.h"
#include "core/report.h"
#include "sim/simulator.h"
#include "store/store.h"

namespace netseer::backend {
namespace {

constexpr util::NodeId kSwitch = 1;
constexpr util::NodeId kBackend = 100;

core::ReportMsg data_segment(std::uint32_t seq) {
  core::ReportMsg msg;
  msg.kind = core::ReportMsg::Kind::kData;
  msg.seq = seq;
  msg.batch.switch_id = kSwitch;
  msg.batch.seq = seq;
  auto ev = core::make_event(core::EventType::kDrop,
                             packet::FlowKey{packet::Ipv4Addr::from_octets(10, 0, 0, 1),
                                             packet::Ipv4Addr::from_octets(10, 0, 0, 2), 6,
                                             static_cast<std::uint16_t>(1000 + seq % 1000),
                                             80},
                             kSwitch, static_cast<util::SimTime>(seq));
  msg.batch.events.push_back(ev);
  return msg;
}

TEST(CollectorWindow, DropsSegmentsBeyondWindowAndAcceptsRedelivery) {
  sim::Simulator sim;
  core::ReportChannel channel(sim, util::Rng(7), util::microseconds(1), 0.0);
  store::FlowEventStore store;
  Collector collector(sim, kBackend, channel, store);

  std::vector<std::uint32_t> acks;
  channel.register_endpoint(kSwitch, [&](util::NodeId, const core::ReportMsg& msg) {
    if (msg.kind == core::ReportMsg::Kind::kAck) acks.push_back(msg.seq);
  });

  const auto send = [&](std::uint32_t seq) {
    channel.send(kSwitch, kBackend, data_segment(seq));
    sim.run();
  };

  send(0);  // in order: stored, ack advances to 1
  EXPECT_EQ(collector.events_stored(), 1u);
  ASSERT_FALSE(acks.empty());
  EXPECT_EQ(acks.back(), 1u);

  // Exactly kReorderWindow ahead of the ack: one past the last
  // bufferable sequence, so it must be dropped and counted.
  const std::uint32_t far = 1 + Collector::kReorderWindow;
  send(far);
  EXPECT_EQ(collector.window_dropped_segments(), 1u);
  EXPECT_EQ(collector.events_stored(), 1u);  // nothing stored from it
  EXPECT_EQ(acks.back(), 1u);               // ack still points at the gap

  // The last in-window sequence is buffered, not dropped.
  send(far - 1);
  EXPECT_EQ(collector.window_dropped_segments(), 1u);
  EXPECT_EQ(collector.events_stored(), 2u);
  EXPECT_EQ(acks.back(), 1u);  // still a gap at 1

  // Closing the gap advances the cumulative ack to the next hole.
  send(1);
  EXPECT_EQ(collector.events_stored(), 3u);
  EXPECT_EQ(acks.back(), 2u);

  // ...which slides the window forward, so the retransmitted copy of
  // the previously dropped segment is now accepted.
  send(far);
  EXPECT_EQ(collector.window_dropped_segments(), 1u);
  EXPECT_EQ(collector.events_stored(), 4u);

  // A duplicate of an already-acked segment counts as a duplicate, and
  // a duplicate of a buffered (not yet acked) one does too.
  send(0);
  EXPECT_EQ(collector.duplicate_segments(), 1u);
  send(far);
  EXPECT_EQ(collector.duplicate_segments(), 2u);
  EXPECT_EQ(collector.events_stored(), 4u);
}

TEST(CollectorWindow, WindowIsPerPeer) {
  sim::Simulator sim;
  core::ReportChannel channel(sim, util::Rng(7), util::microseconds(1), 0.0);
  store::FlowEventStore store;
  Collector collector(sim, kBackend, channel, store);

  // Peer A gets stuck at a gap; peer B's in-order stream is unaffected.
  auto far = data_segment(Collector::kReorderWindow);
  channel.send(kSwitch, kBackend, std::move(far));
  sim.run();
  EXPECT_EQ(collector.window_dropped_segments(), 1u);

  for (std::uint32_t seq = 0; seq < 3; ++seq) {
    auto msg = data_segment(seq);
    msg.batch.switch_id = 2;
    channel.send(2, kBackend, std::move(msg));
    sim.run();
  }
  EXPECT_EQ(collector.events_stored(), 3u);
  EXPECT_EQ(collector.window_dropped_segments(), 1u);
}

}  // namespace
}  // namespace netseer::backend
