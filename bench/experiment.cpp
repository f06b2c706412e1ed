#include "experiment.h"

namespace netseer::bench {

ExperimentOptions::ExperimentOptions(std::string summary) : util::CommandLine(std::move(summary)) {
  flag("metrics-out", &metrics_path_, "write a JSON metrics snapshot on exit");
}

ExperimentOptions& ExperimentOptions::verify_flag() {
  flag("verify", &verify_, "strict", "statically verify the deployment before running");
  return *this;
}

packet::FlowKey random_flow(util::Rng& rng) {
  packet::FlowKey flow;
  flow.src.value = static_cast<std::uint32_t>(rng.next());
  flow.dst.value = static_cast<std::uint32_t>(rng.next());
  flow.proto = 6;
  flow.sport = static_cast<std::uint16_t>(rng.next());
  flow.dport = 80;
  return flow;
}

}  // namespace netseer::bench
