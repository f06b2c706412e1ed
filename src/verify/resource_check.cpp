#include <cstdio>
#include <string>

#include "core/capacity.h"
#include "core/netseer_app.h"
#include "pdp/switch.h"
#include "verify/passes.h"

namespace netseer::verify {

namespace {

constexpr char kPass[] = "resources";

// Per-entry SRAM/TCAM cost of the deployed tables, in bytes. Sized from
// the wire formats this repo actually uses: LPM entry = prefix (5 B) +
// ECMP group (up to 8 ports x 2 B); ternary ACL rule = 2x(prefix +
// mask) + proto + two port ranges + action, padded to the 40 B slice a
// ternary key of this width occupies.
constexpr std::int64_t kLpmEntryBytes = 5 + 16;
constexpr std::int64_t kAclRuleBytes = 40;
constexpr std::int64_t kPathEntryBytes = 13 + 2 + 2 + 4;   // flow + ports + stamp
constexpr std::int64_t kCacheEntryBytes = 13 + 4 + 4 + 4;  // flow + count/reported/target
constexpr std::int64_t kSeqCounterBytes = 4;               // per-port sequence register

}  // namespace

pdp::ResourceModel build_resource_model(const pdp::Switch& sw,
                                        const core::NetSeerConfig& config) {
  using pdp::Resource;
  pdp::ResourceModel model;

  // Baseline usage of the reference L3 program (switch.p4), as reported
  // for the figure-7 axes. NetSeer rides on top of this.
  const char* base = "switch.p4";
  model.add(base, Resource::kExactXbar, 0.30);
  model.add(base, Resource::kTernaryXbar, 0.28);
  model.add(base, Resource::kHashBits, 0.30);
  model.add(base, Resource::kSram, 0.28);
  model.add(base, Resource::kTcam, 0.30);
  model.add(base, Resource::kVliwActions, 0.30);
  model.add(base, Resource::kStatefulAlu, 0.12);
  model.add(base, Resource::kPhv, 0.40);

  // Control-plane tables as actually populated on this switch.
  const char* tables = "tables";
  model.add(tables, Resource::kSram,
            pdp::sram_fraction(static_cast<std::int64_t>(sw.routes().size()) * kLpmEntryBytes));
  model.add(tables, Resource::kTcam,
            pdp::tcam_fraction(static_cast<std::int64_t>(sw.acl().size()) * kAclRuleBytes));

  // Event detection: path-change flow table, congestion compare, pause
  // state.
  const char* detect = "event detection";
  model.add(detect, Resource::kSram,
            pdp::sram_fraction(static_cast<std::int64_t>(config.path_change.entries) *
                               kPathEntryBytes));
  model.add(detect, Resource::kStatefulAlu, 0.04);
  model.add(detect, Resource::kPhv, 0.03);
  model.add(detect, Resource::kVliwActions, 0.02);
  model.add(detect, Resource::kHashBits, 0.02);

  // Inter-switch drop detection: per-port ring buffers + seq counters.
  const char* interswitch = "inter-switch";
  const auto ports = static_cast<int>(sw.config().num_ports);
  const std::int64_t ring_bytes = static_cast<std::int64_t>(
      core::capacity::ring_sram_bytes(ports, config.interswitch.ring_slots));
  model.add(interswitch, Resource::kSram,
            pdp::sram_fraction(ring_bytes + ports * kSeqCounterBytes));
  model.add(interswitch, Resource::kStatefulAlu, 0.13);
  model.add(interswitch, Resource::kPhv, 0.02);
  model.add(interswitch, Resource::kHashBits, 0.01);

  // Deduplication: one group-cache register array per cached event type.
  const char* dedup = "dedup";
  model.add(dedup, Resource::kSram,
            pdp::sram_fraction(static_cast<std::int64_t>(core::NetSeerApp::kCachedEventTypes) *
                               static_cast<std::int64_t>(config.group_cache.entries) *
                               kCacheEntryBytes));
  model.add(dedup, Resource::kStatefulAlu, 0.08);
  model.add(dedup, Resource::kHashBits, 0.04);
  model.add(dedup, Resource::kExactXbar, 0.03);

  // Batching: event stack registers + CEBP circulation actions.
  const char* batching = "batching";
  model.add(batching, Resource::kSram,
            pdp::sram_fraction(static_cast<std::int64_t>(config.event_stack_capacity) *
                               static_cast<std::int64_t>(core::FlowEvent::kWireSize)));
  model.add(batching, Resource::kStatefulAlu, 0.15);
  model.add(batching, Resource::kVliwActions, 0.04);
  model.add(batching, Resource::kPhv, 0.03);

  return model;
}

void check_resources(Report& report, const pdp::Switch& sw, const core::NetSeerConfig& config,
                     const VerifyOptions& options) {
  report.mark_pass(kPass);
  const DiagnosticSource source{kPass, sw.name(), sw.id()};
  const pdp::ResourceModel model = build_resource_model(sw, config);

  for (std::size_t r = 0; r < pdp::kNumResources; ++r) {
    const auto resource = static_cast<pdp::Resource>(r);
    const double usage = model.raw_total(resource);
    if (usage <= options.assumptions.headroom) continue;

    // Name the largest consumer so the diagnostic is actionable.
    std::string dominant;
    double dominant_usage = 0.0;
    for (const auto& component : model.components()) {
      if (component.usage[r] > dominant_usage) {
        dominant_usage = component.usage[r];
        dominant = component.name;
      }
    }

    Severity severity = Severity::kWarning;
    char buf[192];
    if (usage > 1.0) {
      severity = Severity::kError;
      std::snprintf(buf, sizeof(buf),
                    "%s budget exceeded: %.1f%% of chip (largest consumer: %s at %.1f%%)",
                    pdp::to_string(resource), 100.0 * usage, dominant.c_str(),
                    100.0 * dominant_usage);
    } else {
      std::snprintf(buf, sizeof(buf),
                    "%s within %.0f%% of budget: %.1f%% of chip (largest consumer: %s)",
                    pdp::to_string(resource),
                    100.0 * (1.0 - options.assumptions.headroom), 100.0 * usage,
                    dominant.c_str());
    }
    report.add(source.make(severity, pdp::to_string(resource), buf, usage, 1.0));
  }
}

}  // namespace netseer::verify
