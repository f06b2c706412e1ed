#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "util/ids.h"

namespace netseer::verify {

enum class Severity : std::uint8_t {
  kWarning = 0,  // suspicious but deployable (strict mode promotes to error)
  kError,        // the configuration cannot be deployed safely
};

[[nodiscard]] const char* to_string(Severity severity);

/// One finding of a verification pass. Every field that names a pipeline
/// object (switch, component, resource) is filled whenever it is known,
/// so CI can diff findings structurally instead of by message text.
struct Diagnostic {
  Severity severity = Severity::kError;
  std::string pass;         // "resources", "hazards", "recirculation", "acl", "capacity"
  std::string switch_name;  // empty for fabric-wide findings
  util::NodeId switch_id = util::kInvalidNode;
  std::string component;    // table / register array / resource class
  std::string message;
  /// Quantitative payload: measured value vs the budget it violates
  /// (both 0 for purely structural findings).
  double measured = 0.0;
  double limit = 0.0;
};

/// The pass and switch a check reports on. Every pass builds its findings
/// through make(), so all of them fill the same fields the same way.
struct DiagnosticSource {
  std::string pass;
  std::string switch_name;
  util::NodeId switch_id = util::kInvalidNode;

  [[nodiscard]] Diagnostic make(Severity severity, std::string component, std::string message,
                                double measured = 0.0, double limit = 0.0) const {
    return Diagnostic{severity, pass, switch_name, switch_id, std::move(component),
                      std::move(message), measured, limit};
  }
};

/// The result of running one or more passes: an ordered list of
/// diagnostics plus pass bookkeeping for the summary line.
class Report {
 public:
  void add(Diagnostic diagnostic);
  /// Record that a pass ran (even if it found nothing), for the summary.
  void mark_pass(const std::string& pass);

  [[nodiscard]] const std::vector<Diagnostic>& diagnostics() const { return diagnostics_; }
  [[nodiscard]] std::size_t error_count() const;
  [[nodiscard]] std::size_t warning_count() const;
  [[nodiscard]] const std::vector<std::string>& passes_run() const { return passes_; }

  /// Deployable? Errors always fail; `strict` also fails on warnings.
  [[nodiscard]] bool ok(bool strict = false) const;

  /// Human-readable rendering: one line per diagnostic plus a summary.
  [[nodiscard]] std::string render_text() const;
  /// Machine-readable rendering:
  /// {"passes":[...],"errors":N,"warnings":N,"diagnostics":[{...}]}.
  [[nodiscard]] std::string render_json() const;

  /// Merge another report: diagnostics are concatenated in order; the
  /// pass list is deduplicated (merging per-switch reports that ran the
  /// same passes must not double-count them in the summary).
  void merge(const Report& other);

 private:
  std::vector<Diagnostic> diagnostics_;
  std::vector<std::string> passes_;
};

}  // namespace netseer::verify
