// netseer_lint: hot-path discipline analyzer for the NetSeer tree.
//
// Three pass families over every given source file (see DESIGN.md "Static
// analysis layer"):
//   hot-alloc      NETSEER_HOT functions must not reach an allocation
//                  through any same-TU call chain
//   lock-blocking  no fsync/::write/cv-wait/NETSEER_BLOCKING call while a
//                  lock is held, unless the caller is NETSEER_BLOCKING
//   nodiscard / metric-name / raw-sync
//                  discipline checks on status returns, telemetry metric
//                  literals, and raw std::mutex in src/
//
// The frontend is a self-contained token-level scanner, which builds with
// any C++20 toolchain and needs no clang libraries.

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "model.h"
#include "passes.h"
#include "telemetry/metrics.h"
#include "telemetry/snapshot.h"
#include "util/cli.h"

namespace fs = std::filesystem;
using netseer::lint::FileModel;
using netseer::lint::Finding;
using netseer::lint::kPassHotAlloc;
using netseer::lint::kPassLockBlocking;
using netseer::lint::kPassMetricName;
using netseer::lint::kPassNodiscard;
using netseer::lint::kPassRawSync;
using netseer::lint::PassOptions;
using netseer::lint::TokenStream;

namespace {

bool lintable(const fs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".h" || ext == ".hpp" || ext == ".cpp" || ext == ".cc";
}

bool collect_inputs(const std::string& arg, std::vector<std::string>& files) {
  std::error_code ec;
  const fs::file_status st = fs::status(arg, ec);
  if (ec) return false;
  if (fs::is_directory(st)) {
    for (fs::recursive_directory_iterator it(arg, ec), end; !ec && it != end;
         it.increment(ec)) {
      // Seeded-violation corpora (tests/lint/fixtures/) are scanned only
      // when named directly, as the fixture ctest entries do; a directory
      // walk over the tree must not report their planted findings.
      if (it->is_directory(ec) && it->path().filename() == "fixtures") {
        it.disable_recursion_pending();
        continue;
      }
      if (it->is_regular_file(ec) && lintable(it->path())) {
        files.push_back(it->path().string());
      }
    }
    return true;
  }
  if (fs::is_regular_file(st)) {
    files.push_back(arg);
    return true;
  }
  return false;
}

/// Exact-match mode for the fixture suite: every LINT-EXPECT comment must
/// produce a finding of that pass at that line, and no finding may lack an
/// expectation. Prints the mismatches; returns true on exact match.
bool check_expectations(const std::vector<FileModel>& models,
                        const std::vector<Finding>& findings) {
  std::map<std::pair<std::string, int>, std::multiset<std::string>> expected;
  for (const FileModel& m : models) {
    for (const auto& [line, pass] : m.expectations) {
      expected[{m.path, line}].insert(pass);
    }
  }
  bool ok = true;
  for (const Finding& f : findings) {
    auto it = expected.find({f.file, f.line});
    if (it != expected.end()) {
      const auto match = it->second.find(f.pass);
      if (match != it->second.end()) {
        it->second.erase(match);
        continue;
      }
    }
    std::printf("UNEXPECTED %s:%d: [%s] %s\n", f.file.c_str(), f.line, f.pass.c_str(),
                f.message.c_str());
    ok = false;
  }
  for (const auto& [where, passes] : expected) {
    for (const std::string& pass : passes) {
      std::printf("MISSING    %s:%d: expected a [%s] finding\n", where.first.c_str(),
                  where.second, pass.c_str());
      ok = false;
    }
  }
  return ok;
}

/// The lint.* counters --metrics-out exports.
netseer::telemetry::Registry lint_metrics(const std::vector<FileModel>& models,
                                          const std::vector<Finding>& findings) {
  netseer::telemetry::Registry reg;
  std::size_t functions = 0;
  std::size_t hot = 0;
  for (const FileModel& m : models) {
    for (const auto& fn : m.functions) {
      ++functions;
      if (fn.hot) ++hot;
    }
  }
  reg.counter("lint", "files_scanned").add(models.size());
  reg.counter("lint", "functions").add(functions);
  reg.counter("lint", "hot_functions").add(hot);
  reg.counter("lint", "findings_total").add(findings.size());
  for (const Finding& f : findings) {
    std::string pass = f.pass;
    for (char& c : pass) {
      if (c == '-') c = '_';
    }
    reg.counter("lint", "findings." + pass).add(1);
  }
  return reg;
}

}  // namespace

int main(int argc, char** argv) {
  PassOptions options;
  bool expectations = false;
  bool quiet = false;
  std::string metrics_out;
  std::vector<std::string> passes;
  std::vector<std::string> inputs;
  netseer::util::CommandLine cli{
      "netseer_lint — hot-path discipline analyzer: hot-alloc, lock-blocking,\n"
      "nodiscard, metric-name and raw-sync passes over the given files and\n"
      "directories. Exit 0 when clean, 1 on findings."};
  cli.flag("pass", &passes,
           "run only this pass: hot-alloc | lock-blocking | nodiscard | metric-name | raw-sync")
      .flag("fixture-mode", &options.fixture_mode, "treat every file as first-party src/ code")
      .flag("check-expectations", &expectations,
            "findings must exactly match LINT-EXPECT comments (implies --fixture-mode)")
      .flag("metrics-out", &metrics_out, "export lint.* counters as JSON")
      .flag("quiet", &quiet, "suppress per-finding lines")
      .positionals(&inputs, "<file-or-dir>...")
      .parse(argc, argv);
  for (const std::string& pass : passes) {
    if (pass != kPassHotAlloc && pass != kPassLockBlocking && pass != kPassNodiscard &&
        pass != kPassMetricName && pass != kPassRawSync) {
      cli.fail("unknown pass '" + pass + "'");
    }
    options.only.insert(pass);
  }
  if (inputs.empty()) cli.fail("no file or directory to lint");
  if (expectations) options.fixture_mode = true;  // fixtures live under tests/

  std::vector<std::string> files;
  for (const std::string& in : inputs) {
    if (!collect_inputs(in, files)) {
      std::fprintf(stderr, "netseer_lint: cannot read %s\n", in.c_str());
      return 2;
    }
  }
  std::sort(files.begin(), files.end());
  files.erase(std::unique(files.begin(), files.end()), files.end());

  std::vector<FileModel> models;
  models.reserve(files.size());
  for (const std::string& f : files) {
    TokenStream stream;
    if (!TokenStream::lex_file(f, &stream)) {
      std::fprintf(stderr, "netseer_lint: cannot read %s\n", f.c_str());
      return 2;
    }
    models.push_back(netseer::lint::build_model(stream));
  }

  const std::vector<Finding> findings = netseer::lint::run_passes(models, options);

  if (netseer::telemetry::write_metrics(lint_metrics(models, findings), metrics_out) != 0) {
    return 1;
  }

  if (expectations) {
    const bool ok = check_expectations(models, findings);
    if (ok && !quiet) {
      std::printf("netseer_lint: %zu finding(s) matched expectations across %zu file(s)\n",
                  findings.size(), models.size());
    }
    return ok ? 0 : 1;
  }

  for (const Finding& f : findings) {
    if (!quiet) {
      std::printf("%s:%d: [%s] %s\n", f.file.c_str(), f.line, f.pass.c_str(),
                  f.message.c_str());
    }
  }
  if (!quiet) {
    std::printf("netseer_lint: %zu finding(s) across %zu file(s)\n", findings.size(),
                models.size());
  }
  return findings.empty() ? 0 : 1;
}
