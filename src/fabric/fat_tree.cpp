#include "fabric/fat_tree.h"

#include <cstdio>
#include <string>

#include "util/parse.h"

namespace netseer::fabric {

namespace {

constexpr util::SimDuration kLinkDelay = util::microseconds(1);

/// printf-style device names ("agg0-1", "h0-1-7"). GCC 12's -Wrestrict
/// misfires on chained operator+ over std::to_string temporaries, so the
/// names are formatted into a bounded buffer instead.
std::string device_name(const char* format, int a, int b = -1, int c = -1) {
  char buf[48];  // worst case: three full 10-digit ints plus separators
  if (c >= 0) {
    std::snprintf(buf, sizeof(buf), format, a, b, c);
  } else if (b >= 0) {
    std::snprintf(buf, sizeof(buf), format, a, b);
  } else {
    std::snprintf(buf, sizeof(buf), format, a);
  }
  return buf;
}

pdp::SwitchConfig switch_config(const TestbedConfig& config, int num_ports) {
  pdp::SwitchConfig sc;
  sc.num_ports = static_cast<std::uint16_t>(num_ports);
  sc.port_rate = config.fabric_rate;
  sc.mmu = config.mmu;
  sc.pipeline_latency = config.pipeline_latency;
  return sc;
}

}  // namespace

Testbed make_testbed(const TestbedConfig& config, std::uint64_t seed) {
  Testbed tb;
  tb.net = std::make_unique<Network>(seed);
  Network& net = *tb.net;

  const int ports_needed =
      std::max({config.hosts_per_tor + config.aggs_per_pod,
                config.tors_per_pod + config.num_cores, config.num_pods * config.aggs_per_pod});
  const auto sc = switch_config(config, ports_needed);

  for (int c = 0; c < config.num_cores; ++c) {
    tb.cores.push_back(&net.add_switch(device_name("core%d", c), sc));
  }
  for (int p = 0; p < config.num_pods; ++p) {
    for (int a = 0; a < config.aggs_per_pod; ++a) {
      tb.aggs.push_back(
          &net.add_switch(device_name("agg%d-%d", p, a), sc));
    }
    for (int t = 0; t < config.tors_per_pod; ++t) {
      tb.tors.push_back(
          &net.add_switch(device_name("tor%d-%d", p, t), sc));
    }
  }

  // Aggregation <-> core: each agg connects to every core.
  for (int p = 0; p < config.num_pods; ++p) {
    for (int a = 0; a < config.aggs_per_pod; ++a) {
      pdp::Switch& agg = *tb.aggs[p * config.aggs_per_pod + a];
      for (int c = 0; c < config.num_cores; ++c) {
        // Agg uplink ports start after its ToR-facing ports.
        const auto agg_port = static_cast<util::PortId>(config.tors_per_pod + c);
        const auto core_port = static_cast<util::PortId>(p * config.aggs_per_pod + a);
        net.connect_switches(agg, agg_port, *tb.cores[c], core_port, kLinkDelay);
      }
    }
  }

  // ToR <-> aggregation: each ToR connects to every agg in its pod.
  for (int p = 0; p < config.num_pods; ++p) {
    for (int t = 0; t < config.tors_per_pod; ++t) {
      pdp::Switch& tor = *tb.tors[p * config.tors_per_pod + t];
      for (int a = 0; a < config.aggs_per_pod; ++a) {
        pdp::Switch& agg = *tb.aggs[p * config.aggs_per_pod + a];
        // ToR uplink ports start after its host-facing ports.
        const auto tor_port = static_cast<util::PortId>(config.hosts_per_tor + a);
        const auto agg_port = static_cast<util::PortId>(t);
        net.connect_switches(tor, tor_port, agg, agg_port, kLinkDelay);
      }
    }
  }

  // Hosts.
  for (int p = 0; p < config.num_pods; ++p) {
    for (int t = 0; t < config.tors_per_pod; ++t) {
      pdp::Switch& tor = *tb.tors[p * config.tors_per_pod + t];
      for (int h = 0; h < config.hosts_per_tor; ++h) {
        const auto addr = packet::Ipv4Addr::from_octets(
            10, static_cast<std::uint8_t>(p), static_cast<std::uint8_t>(t),
            static_cast<std::uint8_t>(h + 1));
        auto& host =
            net.add_host(device_name("h%d-%d-%d", p, t, h), addr, config.host_rate);
        net.connect_host(tor, static_cast<util::PortId>(h), host, kLinkDelay);
        tb.hosts.push_back(&host);
      }
    }
  }

  net.compute_routes();
  return tb;
}

std::optional<TestbedConfig> resolve_topology(std::string_view name, const TestbedConfig& base) {
  if (name == "testbed") return base;
  int k = 0;
  if (!name.starts_with("fat") || !util::parse_number(name.substr(3), k) || k < 2 || k % 2 != 0) {
    return std::nullopt;
  }
  TestbedConfig ft = base;
  ft.num_pods = k;
  ft.aggs_per_pod = k / 2;
  ft.tors_per_pod = k / 2;
  ft.num_cores = (k / 2) * (k / 2);
  ft.hosts_per_tor = k / 2;
  return ft;
}

}  // namespace netseer::fabric
