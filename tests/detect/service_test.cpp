// DetectService end-to-end over a FlowEventStore: pump/finish over the
// subscription, the constant-rate zero-alert property, and resume-LSN
// checkpointing (exactly-once restart at row granularity).
#include <gtest/gtest.h>

#include <filesystem>
#include <string>

#include "core/event.h"
#include "detect/service.h"
#include "sim/simulator.h"

namespace netseer::detect {
namespace {

namespace stdfs = std::filesystem;

constexpr util::NodeId kSwitch = 3;

core::FlowEvent drop_event(util::SimTime at, std::uint16_t counter = 1,
                           std::uint16_t src_port = 4000) {
  packet::FlowKey flow{packet::Ipv4Addr::from_octets(10, 1, 0, 1),
                       packet::Ipv4Addr::from_octets(10, 1, 0, 2), 6, src_port, 80};
  auto ev = core::make_event(core::EventType::kDrop, flow, kSwitch, at);
  ev.counter = counter;
  return ev;
}

TEST(DetectServiceTest, PumpRaisesAlertOnDropBurst) {
  store::FlowEventStore fs{store::StoreOptions{}};
  // 3 ms of a drop burst: ~50 dropped packets per 1 ms window, well
  // past drop-burst's threshold of 20.
  for (util::SimTime t = 0; t < util::milliseconds(3); t += util::microseconds(20)) {
    fs.add(drop_event(t), t);
  }
  fs.flush();
  (void)fs.sync();

  DetectService service(fs);
  EXPECT_GT(service.pump(), 0u);
  service.finish();

  ASSERT_EQ(service.alerts().alerts().size(), 1u);
  const Alert& alert = service.alerts().alerts()[0];
  EXPECT_EQ(alert.rule->name, "drop-burst");
  EXPECT_EQ(alert.key.switch_id, kSwitch);
  EXPECT_GE(alert.firing_windows, 2u);
  EXPECT_EQ(service.subscription().last_lsn(), fs.durable_lsn());
}

TEST(DetectServiceTest, ConstantRateStreamRaisesZeroAlertsAtAnyWindowSize) {
  // The adaptive families' core property: a constant-rate event stream
  // is "normal" by definition, whatever the window width — EWMA learns
  // it, CUSUM's slack absorbs the +/-1 bucketing jitter, and a sane
  // static threshold sits above it.
  for (const util::SimDuration window :
       {util::microseconds(100), util::microseconds(250), util::microseconds(700),
        util::milliseconds(1), util::milliseconds(2), util::milliseconds(3)}) {
    store::FlowEventStore fs{store::StoreOptions{}};
    for (util::SimTime t = 0; t < util::milliseconds(30); t += util::microseconds(20)) {
      fs.add(drop_event(t), t);
    }
    fs.flush();
    (void)fs.sync();

    DetectOptions options;
    options.rules.window = window;
    options.rules.rules.clear();
    Rule ewma;
    ewma.name = "ewma-rate";
    ewma.family = Family::kEwma;
    ewma.feature = Feature::kEvents;
    ewma.scope = Scope::kDevice;
    options.rules.rules.push_back(ewma);
    Rule cusum;
    cusum.name = "cusum-rate";
    cusum.family = Family::kCusum;
    cusum.feature = Feature::kEvents;
    cusum.scope = Scope::kDevice;
    cusum.cusum_slack = 2.0;
    options.rules.rules.push_back(cusum);
    Rule threshold;
    threshold.name = "threshold-rate";
    threshold.family = Family::kThreshold;
    threshold.feature = Feature::kEvents;
    threshold.scope = Scope::kDevice;
    threshold.threshold = 1e6;
    options.rules.rules.push_back(threshold);

    DetectService service(fs, std::move(options));
    service.pump();
    service.finish();
    EXPECT_EQ(service.alerts().stats().raised, 0u)
        << "window = " << window << " ns raised a false alert";
  }
}

TEST(DetectServiceTest, CheckpointRoundtrip) {
  const auto path =
      (stdfs::temp_directory_path() / "netseer_detect_ckpt_roundtrip.nsdc").string();
  stdfs::remove(path);
  EXPECT_FALSE(DetectService::load_checkpoint(path).has_value());
  ASSERT_TRUE(DetectService::save_checkpoint(path, 123456789));
  const auto loaded = DetectService::load_checkpoint(path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(*loaded, 123456789u);

  // Flip a payload byte: the CRC must reject the file.
  {
    FILE* f = std::fopen(path.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    std::fseek(f, 9, SEEK_SET);
    std::fputc(0x7f, f);
    std::fclose(f);
  }
  EXPECT_FALSE(DetectService::load_checkpoint(path).has_value());
  stdfs::remove(path);
}

TEST(DetectServiceTest, RestartResumesExactlyOnce) {
  const auto ckpt =
      (stdfs::temp_directory_path() / "netseer_detect_ckpt_restart.nsdc").string();
  stdfs::remove(ckpt);

  store::FlowEventStore fs{store::StoreOptions{}};
  for (util::SimTime t = 0; t < util::milliseconds(3); t += util::microseconds(20)) {
    fs.add(drop_event(t), t);
  }
  fs.flush();
  (void)fs.sync();
  const auto first_batch = fs.durable_lsn();

  DetectOptions options;
  options.checkpoint_path = ckpt;
  std::uint64_t alerts_before = 0;
  {
    DetectService service(fs, options);
    EXPECT_FALSE(service.stats().resumed);
    service.pump();
    EXPECT_GT(service.stats().checkpoints, 0u);
    alerts_before = service.alerts().stats().raised;
    EXPECT_GE(alerts_before, 1u);
  }

  // New rows land while no service is running: one benign drop, far in
  // the future so it cannot extend the old burst's windows.
  fs.add(drop_event(util::milliseconds(50), 1, 5000), util::milliseconds(50));
  fs.flush();
  (void)fs.sync();

  DetectService restarted(fs, options);
  EXPECT_TRUE(restarted.stats().resumed);
  EXPECT_EQ(restarted.stats().resumed_lsn, first_batch);
  const std::size_t rows = restarted.pump();
  restarted.finish();
  // Exactly the rows after the checkpoint — the burst is not re-scored,
  // so it cannot re-raise, and the single benign drop stays silent.
  EXPECT_EQ(rows, fs.durable_lsn() - first_batch);
  EXPECT_EQ(restarted.alerts().stats().raised, 0u);
  stdfs::remove(ckpt);
}

TEST(DetectServiceTest, InlineSimulatorDriverPumps) {
  store::FlowEventStore fs{store::StoreOptions{}};
  sim::Simulator sim;
  DetectService service(fs);
  auto handle = sim.schedule_every(util::microseconds(500), [&service] { service.pump(); });
  for (util::SimTime t = 0; t < util::milliseconds(2); t += util::microseconds(20)) {
    (void)sim.schedule_at(t, [&fs, t] { fs.add(drop_event(t), t); });
  }
  sim.run_until(util::milliseconds(3));
  handle.cancel();
  sim.run();
  fs.flush();
  (void)fs.sync();
  service.pump();
  service.finish();
  EXPECT_GE(service.alerts().stats().raised, 1u);
  EXPECT_EQ(service.stats().rows, fs.durable_lsn());
}

}  // namespace
}  // namespace netseer::detect
