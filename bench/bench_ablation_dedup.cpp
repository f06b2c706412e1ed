// Ablation of §3.4's design choices:
//  (1) group caching vs a Bloom filter — the paper rejects Bloom filters
//      because hash collisions cause FALSE NEGATIVES (missed flows);
//      group caching trades them for removable false positives.
//  (2) the report-interval constant C — report volume vs counter
//      freshness.
//  (3) group-cache size — false-positive (duplicate report) rate under
//      collision pressure.
#include <array>
#include <unordered_set>

#include "core/group_cache.h"
#include "experiment.h"
#include "table.h"
#include "util/hash.h"
#include "util/rng.h"

using namespace netseer;
using namespace netseer::bench;

namespace {

/// The rejected alternative: a Bloom filter that suppresses repeat
/// reports. Collisions make genuinely new flows look already-reported —
/// silent false negatives.
class BloomDedup {
 public:
  explicit BloomDedup(std::size_t bits) : bits_(bits, false) {}

  /// True when the flow should be reported (i.e. not seen before).
  bool offer(const packet::FlowKey& flow) {
    const auto h = flow.hash64();
    const std::array<std::size_t, 3> idx = {
        static_cast<std::size_t>(h % bits_.size()),
        static_cast<std::size_t>(util::mix64(h) % bits_.size()),
        static_cast<std::size_t>(util::mix64(h ^ 0x9e37) % bits_.size()),
    };
    bool all_set = true;
    for (const auto i : idx) all_set &= static_cast<bool>(bits_[i]);
    for (const auto i : idx) bits_[i] = true;
    return !all_set;
  }

 private:
  std::vector<bool> bits_;
};

}  // namespace

int main(int argc, char** argv) {
  ExperimentOptions cli{"Ablation — deduplication design (group cache vs Bloom filter)"};
  cli.parse(argc, argv);
  // Bare-GroupCache microbench: fold each cache's counters straight into
  // the registry (there is no switch/app to collect from).
  const auto note_cache = [&cli](const core::GroupCache& cache) {
    if (!cli.metrics_enabled()) return;
    auto& reg = cli.registry();
    reg.counter("core", "group_cache.hits").add(cache.hits());
    reg.counter("core", "group_cache.misses").add(cache.misses());
    reg.counter("core", "group_cache.offered").add(cache.offered());
    reg.counter("core", "group_cache.reports").add(cache.reports());
  };
  print_title("Ablation — deduplication design (§3.4)");

  // ---- (1) group cache vs Bloom filter: false negatives ------------------
  print_note("(1) zero-FN guarantee: 20,000 distinct event flows through each structure");
  print_paper("Bloom filters 'have an unavoidable possibility of false negatives'");
  {
    util::Rng rng(1);
    constexpr int kFlows = 20000;
    std::vector<packet::FlowKey> flows;
    for (int i = 0; i < kFlows; ++i) flows.push_back(random_flow(rng));

    std::printf("\n  %-26s %14s %14s\n", "structure (same SRAM)", "missed flows",
                "duplicate reports");
    for (const std::size_t entries : {1024ul, 4096ul, 16384ul}) {
      // Same memory: one cache entry ~25 bytes = 200 Bloom bits.
      core::GroupCache cache(core::GroupCacheConfig{.entries = entries});
      BloomDedup bloom(entries * 200);
      std::unordered_set<std::uint64_t> cache_reported;
      std::size_t cache_reports = 0, bloom_reports = 0, bloom_missed = 0;
      for (const auto& flow : flows) {
        auto ev = core::make_event(core::EventType::kDrop, flow, 1, 0);
        cache.offer(ev, [&](const core::FlowEvent& out) {
          ++cache_reports;
          cache_reported.insert(out.flow.hash64());
        });
        if (bloom.offer(flow)) {
          ++bloom_reports;
        }
      }
      // Which flows never got any report?
      std::size_t cache_missed = 0;
      for (const auto& flow : flows) cache_missed += !cache_reported.contains(flow.hash64());
      note_cache(cache);
      bloom_missed = static_cast<std::size_t>(kFlows) - bloom_reports;
      char name[64];
      std::snprintf(name, sizeof(name), "group cache %zu entries", entries);
      std::printf("  %-26s %14zu %14zu\n", name, cache_missed, cache_reports - kFlows);
      std::snprintf(name, sizeof(name), "bloom filter %zu bits", entries * 200);
      std::printf("  %-26s %14zu %14s\n", name, bloom_missed, "0");
    }
    print_note("group caching never misses a flow; its cost is duplicate reports the");
    print_note("switch CPU removes. The Bloom filter silently loses flows.");
  }

  // ---- (2) report interval C ----------------------------------------------
  print_note("");
  print_note("(2) report-interval constant C: one elephant flow event, 100,000 packets");
  {
    std::printf("\n  %-8s %16s %22s\n", "C", "reports emitted", "max unreported packets");
    for (const std::uint32_t c : {8u, 16u, 32u, 64u, 128u, 256u, 1024u}) {
      core::GroupCache cache(core::GroupCacheConfig{.entries = 64, .report_interval = c});
      util::Rng rng(2);
      const auto flow = random_flow(rng);
      std::size_t reports = 0;
      std::uint64_t reported_total = 0, max_gap = 0, since_last = 0;
      for (int i = 0; i < 100000; ++i) {
        auto ev = core::make_event(core::EventType::kDrop, flow, 1, 0);
        ++since_last;
        cache.offer(ev, [&](const core::FlowEvent& out) {
          ++reports;
          reported_total += out.counter;
          if (since_last > max_gap) max_gap = since_last;
          since_last = 0;
        });
      }
      std::printf("  %-8u %16zu %22llu\n", c, reports,
                  static_cast<unsigned long long>(max_gap));
      note_cache(cache);
    }
  }

  // ---- (3) cache size vs duplicate-report (FP) rate -----------------------
  print_note("");
  print_note("(3) collision pressure: 5,000 concurrent event flows, 20 packets each");
  {
    std::printf("\n  %-10s %14s %18s\n", "entries", "reports", "duplicates (FPs)");
    for (const std::size_t entries : {256ul, 1024ul, 4096ul, 16384ul, 65536ul}) {
      core::GroupCache cache(core::GroupCacheConfig{.entries = entries});
      util::Rng rng(3);
      std::vector<packet::FlowKey> flows;
      for (int i = 0; i < 5000; ++i) flows.push_back(random_flow(rng));
      std::size_t reports = 0;
      for (int round = 0; round < 20; ++round) {
        for (const auto& flow : flows) {
          auto ev = core::make_event(core::EventType::kDrop, flow, 1, 0);
          cache.offer(ev, [&](const core::FlowEvent&) { ++reports; });
        }
      }
      std::printf("  %-10zu %14zu %18zu\n", entries, reports, reports - flows.size());
      note_cache(cache);
    }
    print_note("duplicates fall steeply once the table comfortably holds the working set");
  }
  return cli.write_metrics();
}
