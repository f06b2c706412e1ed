#include "net/mgmt.h"

#include <gtest/gtest.h>

#include <string>

namespace netseer::net {
namespace {

struct Msg {
  int id = 0;
  std::string body;
};

TEST(MgmtChannel, DeliversAfterDelay) {
  sim::Simulator sim;
  MgmtChannel<Msg> channel(sim, util::Rng(1), util::milliseconds(2), 0.0);
  std::vector<std::pair<util::NodeId, Msg>> received;
  channel.register_endpoint(2, [&](util::NodeId from, const Msg& msg) {
    received.push_back({from, msg});
  });
  channel.send(1, 2, Msg{7, "hello"});
  EXPECT_TRUE(received.empty());
  sim.run();
  ASSERT_EQ(received.size(), 1u);
  EXPECT_EQ(sim.now(), util::milliseconds(2));
  EXPECT_EQ(received[0].first, 1u);
  EXPECT_EQ(received[0].second.id, 7);
  EXPECT_EQ(received[0].second.body, "hello");
}

TEST(MgmtChannel, UnknownDestinationSilentlyDropped) {
  sim::Simulator sim;
  MgmtChannel<Msg> channel(sim, util::Rng(1), 0, 0.0);
  channel.send(1, 99, Msg{});
  sim.run();  // nothing to deliver, nothing crashes
  EXPECT_EQ(channel.messages_sent(), 1u);
}

TEST(MgmtChannel, LossRateApproximatelyHonored) {
  sim::Simulator sim;
  MgmtChannel<Msg> channel(sim, util::Rng(5), 0, 0.25);
  int received = 0;
  channel.register_endpoint(2, [&](util::NodeId, const Msg&) { ++received; });
  for (int i = 0; i < 10000; ++i) channel.send(1, 2, Msg{i, ""});
  sim.run();
  EXPECT_NEAR(static_cast<double>(channel.messages_lost()) / 10000.0, 0.25, 0.03);
  EXPECT_EQ(received, 10000 - static_cast<int>(channel.messages_lost()));
}

TEST(MgmtChannel, MultipleEndpointsRouteIndependently) {
  sim::Simulator sim;
  MgmtChannel<Msg> channel(sim, util::Rng(1), 0, 0.0);
  int a = 0, b = 0;
  channel.register_endpoint(1, [&](util::NodeId, const Msg&) { ++a; });
  channel.register_endpoint(2, [&](util::NodeId, const Msg&) { ++b; });
  channel.send(2, 1, Msg{});
  channel.send(1, 2, Msg{});
  channel.send(1, 2, Msg{});
  sim.run();
  EXPECT_EQ(a, 1);
  EXPECT_EQ(b, 2);
}

TEST(MgmtChannel, DeliversInSendOrderWithoutHeapTasks) {
  sim::Simulator sim;
  MgmtChannel<Msg> channel(sim, util::Rng(1), util::microseconds(5), 0.0);
  std::vector<int> at_backend;
  std::vector<std::pair<int, util::SimTime>> acks;
  // The backend acks each segment on the same channel, from its handler.
  channel.register_endpoint(2, [&](util::NodeId from, const Msg& msg) {
    at_backend.push_back(msg.id);
    channel.send(2, from, Msg{msg.id, "ack"});
  });
  channel.register_endpoint(1, [&](util::NodeId, const Msg& msg) {
    acks.push_back({msg.id, sim.now()});
  });
  for (int i = 0; i < 3; ++i) channel.send(1, 2, Msg{i, "segment"});
  (void)sim.schedule_at(util::microseconds(2), [&channel] {
    for (int i = 3; i < 6; ++i) channel.send(1, 2, Msg{i, "segment"});
  });
  sim.run();

  EXPECT_EQ(at_backend, (std::vector<int>{0, 1, 2, 3, 4, 5}));
  ASSERT_EQ(acks.size(), 6u);
  for (int i = 0; i < 6; ++i) {
    EXPECT_EQ(acks[i].first, i);
    EXPECT_EQ(acks[i].second, util::microseconds(i < 3 ? 10 : 12)) << "ack " << i;
  }
  // Each delivery event captures the channel alone.
  EXPECT_EQ(sim.task_heap_allocs(), 0u);
}

}  // namespace
}  // namespace netseer::net
