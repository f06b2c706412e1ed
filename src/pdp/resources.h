#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

namespace netseer::pdp {

/// Resource classes of a Tofino-style RMT pipeline (the axes of paper
/// Figure 7a).
enum class Resource : std::uint8_t {
  kExactXbar = 0,
  kTernaryXbar,
  kHashBits,
  kSram,
  kTcam,
  kVliwActions,
  kStatefulAlu,
  kPhv,
};
inline constexpr std::size_t kNumResources = 8;

[[nodiscard]] const char* to_string(Resource resource);

/// Static resource-occupation model: components declare what fraction of
/// each chip resource they consume, and the model reports per-component
/// and overall usage. This reproduces how P4 compilers report utilization
/// — the *shape* of Figure 7 — from this repo's actual configuration
/// (table sizes, register array sizes) rather than hardware compilation.
class ResourceModel {
 public:
  struct Component {
    std::string name;
    std::array<double, kNumResources> usage{};  // fraction of chip, 0..1
  };

  /// Declare (or extend) a component's usage of one resource. Crossing
  /// 100% of a chip resource is recorded as an overflow (per resource
  /// class) and logged — the telemetry layer exports these counters so
  /// runs can assert zero overflows (see telemetry::collect).
  void add(const std::string& component, Resource resource, double fraction);

  /// Total usage of `resource` across all components, clamped to [0, 1].
  [[nodiscard]] double total(Resource resource) const;

  /// Unclamped total usage of `resource` — above 1.0 when the
  /// configuration does not fit the chip. The static verifier (and the
  /// overflow counters) check this, not the clamped report value.
  [[nodiscard]] double raw_total(Resource resource) const;

  /// Times add() pushed `resource` past 100% of the chip.
  [[nodiscard]] std::uint64_t overflows(Resource resource) const {
    return overflows_[static_cast<std::size_t>(resource)];
  }

  /// Usage of `resource` by one component (0 when unknown).
  [[nodiscard]] double component_usage(const std::string& component, Resource resource) const;

  [[nodiscard]] const std::vector<Component>& components() const { return components_; }

  /// Render the Figure-7-style report.
  [[nodiscard]] std::string report() const;

 private:
  std::vector<Component> components_;
  std::array<std::uint64_t, kNumResources> overflows_{};
};

/// SRAM cost model helpers used to derive fractions from configuration.
/// A Tofino 32D exposes roughly 120 Mb of MAU SRAM and 6.2 Mb of TCAM;
/// normalized against those, register/table sizes become chip fractions.
[[nodiscard]] double sram_fraction(std::int64_t bytes);
[[nodiscard]] double tcam_fraction(std::int64_t bytes);

}  // namespace netseer::pdp
