#include "telemetry/metrics.h"

namespace netseer::telemetry {

std::uint64_t Registry::total(std::string_view subsystem, std::string_view name) const {
  util::MutexLock lock(mu_);
  std::uint64_t sum = 0;
  for (const auto& [k, counter] : counters_) {
    if (k.subsystem == subsystem && k.name == name) sum += counter.value();
  }
  return sum;
}

}  // namespace netseer::telemetry
