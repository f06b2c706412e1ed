#include "util/cli.h"

#include <cstdio>
#include <cstdlib>
#include <utility>

namespace netseer::util {

CommandLine::CommandLine(std::string summary) : summary_(std::move(summary)) {}

CommandLine& CommandLine::add(std::string_view name, Arity arity, std::string_view help,
                              const std::string& shown_default,
                              std::function<bool(std::string_view)> set) {
  std::string text(help);
  if (!shown_default.empty()) text += " (default " + shown_default + ")";
  specs_.push_back(Spec{std::string(name), arity, arity == Arity::kOne ? "=<value>" : "",
                        std::move(text), std::move(set)});
  return *this;
}

CommandLine& CommandLine::flag(std::string_view name, std::string* out, std::string_view help) {
  return add(name, Arity::kOne, help, *out, [out](std::string_view text) {
    *out = text;
    return true;
  });
}

CommandLine& CommandLine::flag(std::string_view name, bool* out, std::string_view help) {
  return add(name, Arity::kNone, help, {}, [out](std::string_view) {
    *out = true;
    return true;
  });
}

CommandLine& CommandLine::flag(std::string_view name, std::vector<std::string>* out,
                               std::string_view help) {
  return add(name, Arity::kOne, std::string(help) + " (repeatable)", {},
             [out](std::string_view text) {
               out->emplace_back(text);
               return true;
             });
}

CommandLine& CommandLine::flag(std::string_view name, std::optional<std::string>* out,
                               std::string_view mode, std::string_view help) {
  add(name, Arity::kOptional, help, {}, [out, mode = std::string(mode)](std::string_view text) {
    if (!text.empty() && text != mode) return false;
    *out = text;
    return true;
  });
  specs_.back().value_hint = "[=" + std::string(mode) + "]";
  return *this;
}

CommandLine& CommandLine::positionals(std::vector<std::string>* out, std::string_view synopsis) {
  positionals_ = out;
  synopsis_ = synopsis;
  return *this;
}

std::string CommandLine::show_double(double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%g", value);
  return buffer;
}

CommandLine& CommandLine::parse(int argc, const char* const* argv) {
  if (argc > 0 && argv[0] != nullptr) {
    const std::string_view path = argv[0];
    program_ = path.substr(path.rfind('/') + 1);
  }

  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::fputs(usage().c_str(), stdout);
      std::exit(0);
    }
    if (!arg.starts_with("--")) {
      if (positionals_ == nullptr) fail("unexpected argument '" + std::string(arg) + "'");
      positionals_->emplace_back(arg);
      continue;
    }

    const auto eq = arg.find('=');
    const std::string_view name = arg.substr(0, eq).substr(2);
    const Spec* spec = nullptr;
    for (const Spec& candidate : specs_) {
      if (candidate.name == name) {
        spec = &candidate;
        break;
      }
    }
    if (spec == nullptr) fail("unknown flag '" + std::string(arg) + "'");

    std::string_view value;
    if (eq != std::string_view::npos) {
      if (spec->arity == Arity::kNone) fail("--" + spec->name + " takes no value");
      value = arg.substr(eq + 1);
    } else if (spec->arity == Arity::kOne) {
      if (i + 1 >= argc) fail("--" + spec->name + " needs a value");
      value = argv[++i];
    }
    if (!spec->set(value)) {
      fail("bad value '" + std::string(value) + "' for --" + spec->name);
    }
  }
  return *this;
}

void CommandLine::fail(std::string_view message) const {
  const std::string text = program_ + ": " + std::string(message) + "\n\n" + usage();
  std::fputs(text.c_str(), stderr);
  std::exit(2);
}

std::string CommandLine::usage() const {
  std::string text = summary_ + "\n\nusage: " + program_ + " [flags]";
  if (!synopsis_.empty()) text += " " + synopsis_;
  text += "\n";
  const auto row = [&text](const std::string& lhs, const std::string& help) {
    text += "  " + lhs;
    text.append(lhs.size() < 26 ? 27 - lhs.size() : 1, ' ');
    text += help + "\n";
  };
  for (const Spec& spec : specs_) {
    row("--" + spec.name + spec.value_hint, spec.help);
  }
  row("--help", "show this message");
  return text;
}

}  // namespace netseer::util
