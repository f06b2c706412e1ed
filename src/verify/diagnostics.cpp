#include "verify/diagnostics.h"

#include <algorithm>
#include <cstdio>

#include "util/json.h"

namespace netseer::verify {

const char* to_string(Severity severity) {
  switch (severity) {
    case Severity::kWarning: return "warning";
    case Severity::kError: return "error";
  }
  return "?";
}

void Report::add(Diagnostic diagnostic) { diagnostics_.push_back(std::move(diagnostic)); }

void Report::mark_pass(const std::string& pass) {
  if (std::find(passes_.begin(), passes_.end(), pass) == passes_.end()) {
    passes_.push_back(pass);
  }
}

std::size_t Report::error_count() const {
  return static_cast<std::size_t>(
      std::count_if(diagnostics_.begin(), diagnostics_.end(),
                    [](const Diagnostic& d) { return d.severity == Severity::kError; }));
}

std::size_t Report::warning_count() const { return diagnostics_.size() - error_count(); }

bool Report::ok(bool strict) const {
  if (error_count() > 0) return false;
  return !strict || warning_count() == 0;
}

void Report::merge(const Report& other) {
  for (const auto& d : other.diagnostics_) diagnostics_.push_back(d);
  for (const auto& p : other.passes_) mark_pass(p);
}

std::string Report::render_text() const {
  std::string out;
  for (const auto& d : diagnostics_) {
    out += to_string(d.severity);
    out += " [";
    out += d.pass;
    out += "]";
    if (!d.switch_name.empty()) {
      out += " ";
      out += d.switch_name;
    }
    if (!d.component.empty()) {
      out += " ";
      out += d.component;
    }
    out += ": ";
    out += d.message;
    if (d.limit != 0.0 || d.measured != 0.0) {
      char buf[96];
      std::snprintf(buf, sizeof(buf), " (measured %.6g, limit %.6g)", d.measured, d.limit);
      out += buf;
    }
    out += '\n';
  }
  char buf[128];
  std::snprintf(buf, sizeof(buf), "%zu error(s), %zu warning(s) across %zu pass(es)\n",
                error_count(), warning_count(), passes_.size());
  out += buf;
  return out;
}

std::string Report::render_json() const {
  std::string out = "{\n  \"passes\": [";
  for (std::size_t i = 0; i < passes_.size(); ++i) {
    if (i > 0) out += ", ";
    util::append_json_string(out, passes_[i]);
  }
  out += "],\n  \"errors\": " + std::to_string(error_count());
  out += ",\n  \"warnings\": " + std::to_string(warning_count());
  out += ",\n  \"diagnostics\": [";
  for (std::size_t i = 0; i < diagnostics_.size(); ++i) {
    const auto& d = diagnostics_[i];
    out += i == 0 ? "\n" : ",\n";
    out += "    {\"severity\": ";
    util::append_json_string(out, to_string(d.severity));
    out += ", \"pass\": ";
    util::append_json_string(out, d.pass);
    out += ", \"switch\": ";
    util::append_json_string(out, d.switch_name);
    out += ", \"switch_id\": ";
    if (d.switch_id == util::kInvalidNode) {
      out += "null";
    } else {
      out += std::to_string(d.switch_id);
    }
    out += ", \"component\": ";
    util::append_json_string(out, d.component);
    out += ", \"message\": ";
    util::append_json_string(out, d.message);
    out += ", \"measured\": ";
    util::append_json_double(out, d.measured);
    out += ", \"limit\": ";
    util::append_json_double(out, d.limit);
    out += "}";
  }
  out += "\n  ]\n}\n";
  return out;
}

}  // namespace netseer::verify
