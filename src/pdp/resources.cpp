#include "pdp/resources.h"

#include <algorithm>
#include <cstdio>

#include "util/logging.h"

namespace netseer::pdp {

const char* to_string(Resource resource) {
  switch (resource) {
    case Resource::kExactXbar: return "Exact xbar";
    case Resource::kTernaryXbar: return "Ternary xbar";
    case Resource::kHashBits: return "Hash bits";
    case Resource::kSram: return "SRAM";
    case Resource::kTcam: return "TCAM";
    case Resource::kVliwActions: return "VLIW actions";
    case Resource::kStatefulAlu: return "Stateful ALU";
    case Resource::kPhv: return "PHV";
  }
  return "?";
}

void ResourceModel::add(const std::string& component, Resource resource, double fraction) {
  const double before = raw_total(resource);
  bool found = false;
  for (auto& c : components_) {
    if (c.name == component) {
      c.usage[static_cast<std::size_t>(resource)] += fraction;
      found = true;
      break;
    }
  }
  if (!found) {
    Component c;
    c.name = component;
    c.usage[static_cast<std::size_t>(resource)] = fraction;
    components_.push_back(std::move(c));
  }
  // Dynamic overflow detection: the moment a class crosses 100% of the
  // chip, count it (telemetry exports the counter) and log the culprit.
  const double after = before + fraction;
  if (before <= 1.0 && after > 1.0) {
    ++overflows_[static_cast<std::size_t>(resource)];
    NETSEER_LOG_WARN("resource overflow: %s at %.1f%% of chip after component '%s'",
                     to_string(resource), 100.0 * after, component.c_str());
  }
}

double ResourceModel::total(Resource resource) const {
  return std::clamp(raw_total(resource), 0.0, 1.0);
}

double ResourceModel::raw_total(Resource resource) const {
  double total = 0.0;
  for (const auto& c : components_) total += c.usage[static_cast<std::size_t>(resource)];
  return total;
}

double ResourceModel::component_usage(const std::string& component, Resource resource) const {
  for (const auto& c : components_) {
    if (c.name == component) return c.usage[static_cast<std::size_t>(resource)];
  }
  return 0.0;
}

std::string ResourceModel::report() const {
  std::string out;
  char line[256];
  std::snprintf(line, sizeof(line), "%-14s %8s", "Resource", "Total");
  out += line;
  for (const auto& c : components_) {
    std::snprintf(line, sizeof(line), " %14s", c.name.c_str());
    out += line;
  }
  out += '\n';
  for (std::size_t r = 0; r < kNumResources; ++r) {
    const auto resource = static_cast<Resource>(r);
    std::snprintf(line, sizeof(line), "%-14s %7.1f%%", to_string(resource),
                  100.0 * total(resource));
    out += line;
    for (const auto& c : components_) {
      std::snprintf(line, sizeof(line), " %13.1f%%", 100.0 * c.usage[r]);
      out += line;
    }
    out += '\n';
  }
  return out;
}

namespace {
// Approximate Tofino 32D capacities used for normalization.
constexpr double kSramBits = 120e6;
constexpr double kTcamBits = 6.2e6;
}  // namespace

double sram_fraction(std::int64_t bytes) {
  return std::clamp(static_cast<double>(bytes) * 8.0 / kSramBits, 0.0, 1.0);
}

double tcam_fraction(std::int64_t bytes) {
  return std::clamp(static_cast<double>(bytes) * 8.0 / kTcamBits, 0.0, 1.0);
}

}  // namespace netseer::pdp
