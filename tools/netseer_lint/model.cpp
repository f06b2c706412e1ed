#include "model.h"

#include <algorithm>
#include <unordered_set>

namespace netseer::lint {

namespace {

using TokenVec = std::vector<Token>;

constexpr std::size_t kNpos = static_cast<std::size_t>(-1);

bool is_keyword(std::string_view s) {
  static const std::unordered_set<std::string_view> kKeywords = {
      "alignas",  "alignof",   "auto",     "bool",     "break",    "case",
      "catch",    "char",      "class",    "const",    "constexpr", "consteval",
      "constinit", "continue", "co_await", "co_return", "co_yield", "decltype",
      "default",  "delete",    "do",       "double",   "else",     "enum",
      "explicit", "extern",    "false",    "float",    "for",      "friend",
      "goto",     "if",        "inline",   "int",      "long",     "mutable",
      "namespace", "new",      "noexcept", "nullptr",  "operator", "private",
      "protected", "public",   "register", "requires", "return",   "short",
      "signed",   "sizeof",    "static",   "struct",   "switch",   "template",
      "this",     "throw",     "true",     "try",      "typedef",  "typeid",
      "typename", "union",     "unsigned", "using",    "virtual",  "void",
      "volatile", "while",
  };
  return kKeywords.count(s) > 0;
}

bool is_specifier(std::string_view s) {
  static const std::unordered_set<std::string_view> kSpecs = {
      "static", "inline", "virtual", "explicit", "constexpr", "consteval",
      "constinit", "friend", "extern", "mutable", "thread_local",
  };
  return kSpecs.count(s) > 0;
}

bool is_lock_type(std::string_view s) {
  return s == "MutexLock" || s == "CondMutexLock" || s == "lock_guard" ||
         s == "unique_lock" || s == "scoped_lock";
}

bool is_direct_alloc_fn(std::string_view s) {
  return s == "malloc" || s == "calloc" || s == "realloc" || s == "aligned_alloc" ||
         s == "strdup";
}

/// Container mutations that may grow the backing store. Only meaningful as
/// receiver calls (x.push_back(...)).
bool is_allocating_method(std::string_view s) {
  static const std::unordered_set<std::string_view> kGrow = {
      "push_back", "emplace_back", "emplace", "try_emplace", "insert",
      "resize",    "reserve",      "append",  "assign",      "push_front",
  };
  return kGrow.count(s) > 0;
}

bool is_blocking_libc(std::string_view s) {
  static const std::unordered_set<std::string_view> kBlock = {
      "fsync", "fdatasync", "fwrite", "fread", "fflush", "fopen", "fclose",
      "system", "sleep_for", "sleep_until",
  };
  return kBlock.count(s) > 0;
}

bool is_blocking_fs(std::string_view s) {
  static const std::unordered_set<std::string_view> kFs = {
      "remove",    "remove_all",         "rename",      "copy",
      "copy_file", "create_directories", "resize_file", "last_write_time",
      "directory_iterator",
  };
  return kFs.count(s) > 0;
}

bool is_mutex_family(std::string_view s) {
  static const std::unordered_set<std::string_view> kSync = {
      "mutex", "timed_mutex", "recursive_mutex", "shared_mutex",
      "condition_variable", "condition_variable_any", "lock_guard",
      "unique_lock", "scoped_lock",
  };
  return kSync.count(s) > 0;
}

std::string strip_quotes(std::string_view s) {
  if (s.size() >= 2 && s.front() == '"' && s.back() == '"') {
    return std::string(s.substr(1, s.size() - 2));
  }
  return std::string(s);
}

class Builder {
 public:
  explicit Builder(const TokenStream& stream) : stream_(stream), toks_(stream.tokens()) {
    out_.path = stream.path();
  }

  FileModel build() {
    scan_comments();
    scan_file_tokens();
    std::size_t i = 0;
    while (i < toks_.size()) parse_top(i);
    return std::move(out_);
  }

 private:
  // ---- token helpers -------------------------------------------------------

  [[nodiscard]] bool is_punct(std::size_t i, std::string_view p) const {
    return i < toks_.size() && toks_[i].kind == TokKind::kPunct && toks_[i].text == p;
  }
  [[nodiscard]] bool is_ident(std::size_t i) const {
    return i < toks_.size() && toks_[i].kind == TokKind::kIdent;
  }
  [[nodiscard]] bool is_ident(std::size_t i, std::string_view s) const {
    return is_ident(i) && toks_[i].text == s;
  }

  /// Previous non-preprocessor token index, or kNpos.
  [[nodiscard]] std::size_t prev(std::size_t i) const {
    while (i > 0) {
      --i;
      if (toks_[i].kind != TokKind::kPreproc) return i;
    }
    return kNpos;
  }
  /// Next non-preprocessor token index, or kNpos.
  [[nodiscard]] std::size_t next(std::size_t i) const {
    for (++i; i < toks_.size(); ++i) {
      if (toks_[i].kind != TokKind::kPreproc) return i;
    }
    return kNpos;
  }

  /// Index one past the matching closer for the opener at `i`, or kNpos.
  [[nodiscard]] std::size_t skip_matched(std::size_t i, std::string_view open,
                                         std::string_view close) const {
    int depth = 0;
    for (; i < toks_.size(); ++i) {
      if (toks_[i].kind != TokKind::kPunct) continue;
      if (toks_[i].text == open) {
        ++depth;
      } else if (toks_[i].text == close) {
        if (--depth == 0) return i + 1;
      }
    }
    return kNpos;
  }

  /// Try to match a template-argument angle bracket starting at `i` (which
  /// must be `<`). Bounded and abort-on-statement so `a < b` comparisons
  /// fall through. Returns index one past `>`, or kNpos.
  [[nodiscard]] std::size_t match_angle(std::size_t i) const {
    int depth = 0;
    const std::size_t limit = std::min(toks_.size(), i + 64);
    for (; i < limit; ++i) {
      if (toks_[i].kind != TokKind::kPunct) continue;
      const std::string_view p = toks_[i].text;
      if (p == "<") {
        ++depth;
      } else if (p == ">") {
        if (--depth == 0) return i + 1;
      } else if (p == ";" || p == "{" || p == "}") {
        return kNpos;
      }
    }
    return kNpos;
  }

  /// If tokens ending at `i` (inclusive) are punctuation preceded by the
  /// identifier `operator`, return that identifier's index; else kNpos.
  [[nodiscard]] std::size_t operator_lookback(std::size_t i) const {
    for (int steps = 0; steps < 4 && i != kNpos; ++steps) {
      if (is_ident(i, "operator")) return i;
      if (toks_[i].kind != TokKind::kPunct) return kNpos;
      i = prev(i);
    }
    return kNpos;
  }

  // ---- comments ------------------------------------------------------------

  void scan_comments() {
    for (const Comment& c : stream_.comments()) {
      if (c.whole_line) whole_line_comments_.insert(c.line);
    }
    for (const Comment& c : stream_.comments()) {
      parse_marker(c, "NETSEER_LINT_ALLOW(", /*suppression=*/true);
      parse_marker(c, "LINT-EXPECT:", /*suppression=*/false);
    }
  }

  /// A whole-line marker governs the statement the comment block precedes:
  /// skip past any further comment-only lines to the first line of code.
  [[nodiscard]] int marker_target(int line) const {
    int target = line + 1;
    while (whole_line_comments_.count(target) > 0) ++target;
    return target;
  }

  void parse_marker(const Comment& c, std::string_view marker, bool suppression) {
    const std::size_t at = c.text.find(marker);
    if (at == std::string_view::npos) return;
    std::string_view rest = c.text.substr(at + marker.size());
    if (suppression) {
      const std::size_t close = rest.find(')');
      if (close == std::string_view::npos) return;
      rest = rest.substr(0, close);
    }
    // Split on commas/whitespace: ALLOW takes a comma list, EXPECT a space list.
    std::vector<std::string> passes;
    std::string cur;
    for (const char ch : rest) {
      if (ch == ',' || ch == ' ' || ch == '\t') {
        if (!cur.empty()) passes.push_back(std::move(cur));
        cur.clear();
      } else {
        cur.push_back(ch);
      }
    }
    if (!cur.empty()) passes.push_back(std::move(cur));
    for (const std::string& p : passes) {
      if (suppression) {
        out_.suppressions[c.line].insert(p);
        if (c.whole_line) out_.suppressions[marker_target(c.line)].insert(p);
      } else {
        out_.expectations.emplace(c.whole_line ? marker_target(c.line) : c.line, p);
      }
    }
  }

  [[nodiscard]] bool suppressed(int line, const char* pass) const {
    const auto it = out_.suppressions.find(line);
    return it != out_.suppressions.end() && it->second.count(pass) > 0;
  }

  // ---- whole-file scans ----------------------------------------------------

  void scan_file_tokens() {
    for (std::size_t i = 0; i < toks_.size(); ++i) {
      const Token& t = toks_[i];
      if (t.kind != TokKind::kIdent) continue;
      const std::size_t p1 = prev(i);
      if (p1 == kNpos || !is_punct(p1, "::")) continue;
      const std::size_t p2 = prev(p1);
      if (p2 == kNpos || !is_ident(p2, "std")) continue;
      if (is_mutex_family(t.text)) {
        out_.raw_sync.push_back(RawSyncUse{"std::" + std::string(t.text), t.line});
      }
    }
  }

  // ---- structural parse ----------------------------------------------------

  void parse_top(std::size_t& i) {
    const Token& t = toks_[i];
    if (t.kind == TokKind::kPreproc) {
      ++i;
      return;
    }
    if (t.kind == TokKind::kPunct) {
      if (t.text == "}") {
        if (!scopes_.empty()) scopes_.pop_back();
        ++i;
        return;
      }
      if (t.text == ";") {
        ++i;
        return;
      }
      parse_decl(i);
      return;
    }
    if (t.kind != TokKind::kIdent) {
      ++i;
      return;
    }
    const std::string_view s = t.text;
    if (s == "namespace") {
      parse_namespace(i);
    } else if (s == "using" || s == "typedef" || s == "friend" || s == "static_assert") {
      skip_to_semi(i);
    } else if (s == "template") {
      ++i;
      if (is_punct(i, "<")) {
        const std::size_t after = skip_matched(i, "<", ">");
        i = after == kNpos ? toks_.size() : after;
      }
    } else if (s == "enum") {
      parse_enum(i);
    } else if (s == "class" || s == "struct" || s == "union") {
      parse_class(i);
    } else if (s == "extern" && next(i) != kNpos &&
               toks_[next(i)].kind == TokKind::kString && is_punct(next(next(i)), "{")) {
      scopes_.emplace_back();  // extern "C" { ... }: transparent scope
      i = next(next(i)) + 1;
    } else if ((s == "public" || s == "private" || s == "protected") &&
               is_punct(next(i), ":")) {
      i = next(i) + 1;
    } else {
      parse_decl(i);
    }
  }

  void skip_to_semi(std::size_t& i) {
    int brace = 0;
    for (; i < toks_.size(); ++i) {
      if (toks_[i].kind != TokKind::kPunct) continue;
      if (toks_[i].text == "{") ++brace;
      if (toks_[i].text == "}") --brace;
      if (toks_[i].text == ";" && brace <= 0) {
        ++i;
        return;
      }
    }
  }

  void parse_namespace(std::size_t& i) {
    ++i;  // past `namespace`
    std::string name;
    for (; i < toks_.size(); ++i) {
      const Token& t = toks_[i];
      if (t.kind == TokKind::kIdent && t.text != "inline") {
        if (!name.empty()) name += "::";
        name += t.text;
      } else if (t.kind == TokKind::kPunct) {
        if (t.text == "{") {
          scopes_.push_back(name);
          ++i;
          return;
        }
        if (t.text == "=") {  // namespace alias
          skip_to_semi(i);
          return;
        }
        if (t.text == ";") {
          ++i;
          return;
        }
        if (t.text != "::") {  // attributes etc.: ignore
          ++i;
          return;
        }
      }
    }
  }

  void parse_enum(std::size_t& i) {
    for (; i < toks_.size(); ++i) {
      if (!is_punct(i, "{") && !is_punct(i, ";")) continue;
      if (toks_[i].text == ";") {
        ++i;
        return;
      }
      const std::size_t after = skip_matched(i, "{", "}");
      i = after == kNpos ? toks_.size() : after;
      return;
    }
  }

  void parse_class(std::size_t& i) {
    // Name = last top-level identifier before the base-clause `:` (if any)
    // or the `{`; annotation macros like NETSEER_CAPABILITY("x") and the
    // `final` specifier sit between keyword and brace and must not win.
    std::size_t j = i + 1;
    int paren = 0;
    std::string name;
    std::string prev_name;
    bool saw_colon = false;
    for (; j < toks_.size(); ++j) {
      const Token& t = toks_[j];
      if (t.kind == TokKind::kPreproc) continue;
      if (t.kind == TokKind::kPunct) {
        if (t.text == "(") ++paren;
        if (t.text == ")") --paren;
        if (paren > 0) continue;
        if (t.text == ";") {  // forward declaration (or a `struct X x;` var)
          i = j + 1;
          return;
        }
        if (t.text == ":") saw_colon = true;
        if (t.text == "{") break;
        continue;
      }
      if (t.kind == TokKind::kIdent && paren == 0 && !saw_colon) {
        prev_name = std::move(name);
        name = t.text;
      }
    }
    if (j >= toks_.size()) {
      i = toks_.size();
      return;
    }
    if (name == "final" && !prev_name.empty()) name = prev_name;
    scopes_.push_back(name);
    i = j + 1;
  }

  // ---- declaration runs ----------------------------------------------------

  void parse_decl(std::size_t& i) {
    const std::size_t run_start = i;
    std::size_t j = i;
    int paren = 0;
    bool saw_eq = false;
    bool in_ctor_init = false;
    std::size_t param_open = kNpos;
    std::size_t param_close = kNpos;

    while (j < toks_.size()) {
      const Token& t = toks_[j];
      if (t.kind == TokKind::kPreproc) {
        ++j;
        continue;
      }
      if (t.kind != TokKind::kPunct) {
        ++j;
        continue;
      }
      const std::string_view p = t.text;
      if (p == "(") {
        if (paren == 0 && param_open == kNpos && !saw_eq) {
          if (try_param_group(run_start, j, param_open, param_close)) {
            j = param_close + 1;
            continue;
          }
          // Not a parameter list (annotation macro, function pointer,
          // noexcept(...)): swallow the group and keep scanning.
          const std::size_t after = skip_matched(j, "(", ")");
          if (after != kNpos) {
            j = after;
            continue;
          }
        }
        ++paren;
        ++j;
        continue;
      }
      if (p == ")") {
        --paren;
        ++j;
        continue;
      }
      if (paren > 0) {
        ++j;
        continue;
      }
      if (p == ";") {
        if (param_open != kNpos) {
          record_function(run_start, param_open, param_close, /*body_open=*/kNpos);
        }
        i = j + 1;
        return;
      }
      if (p == "=") {
        if (operator_lookback(prev(j)) == kNpos && !is_ident(prev(j), "operator")) {
          saw_eq = true;
        }
        ++j;
        continue;
      }
      if (p == ":" && param_close != kNpos && j > param_close) {
        in_ctor_init = true;
        ++j;
        continue;
      }
      if (p == "{") {
        const std::size_t pv = prev(j);
        const bool after_ident = pv != kNpos && toks_[pv].kind == TokKind::kIdent &&
                                 !is_keyword(toks_[pv].text);
        if (saw_eq || (after_ident && (param_open == kNpos || in_ctor_init))) {
          // Braced initializer: `= {...}`, `x{1}`, or a ctor-init `Base{...}`.
          const std::size_t after = skip_matched(j, "{", "}");
          j = after == kNpos ? toks_.size() : after;
          continue;
        }
        // Function body.
        const std::size_t body_end = skip_matched(j, "{", "}");
        if (param_open != kNpos) {
          record_function(run_start, param_open, param_close, j);
        }
        i = body_end == kNpos ? toks_.size() : body_end;
        return;
      }
      ++j;
    }
    i = toks_.size();
  }

  /// Decide whether the `(` at `open` starts a parameter list; if so fill
  /// param_open/param_close and return true.
  bool try_param_group(std::size_t run_start, std::size_t open, std::size_t& param_open,
                       std::size_t& param_close) {
    const std::size_t pv = prev(open);
    if (pv == kNpos || pv < run_start) return false;
    bool candidate = false;
    if (toks_[pv].kind == TokKind::kIdent) {
      const std::string_view name = toks_[pv].text;
      if (name.substr(0, 8) == "NETSEER_") return false;  // annotation macro
      if (!is_keyword(name) || name == "operator") {
        candidate = true;
      } else if (is_ident(prev(pv), "operator")) {
        candidate = true;  // conversion operator: `operator bool (`
      }
    } else if (operator_lookback(pv) != kNpos) {
      candidate = true;  // `operator== (`, `operator[] (`, ...
    }
    if (!candidate) return false;
    const std::size_t close = skip_matched(open, "(", ")");
    if (close == kNpos) return false;
    param_open = open;
    param_close = close - 1;
    return true;
  }

  void record_function(std::size_t run_start, std::size_t param_open,
                       std::size_t param_close, std::size_t body_open) {
    FunctionModel fn;
    fn.file = out_.path;
    fn.is_definition = body_open != kNpos;

    // Name: walk back from the token before `(`.
    std::size_t k = prev(param_open);
    if (k == kNpos || k < run_start) return;
    std::string qual_prefix;
    if (toks_[k].kind == TokKind::kIdent && is_keyword(toks_[k].text) &&
        toks_[k].text != "operator") {
      // `operator bool (` — conversion operator.
      fn.name = "operator " + std::string(toks_[k].text);
      k = prev(prev(k));  // past the keyword and `operator`
    } else if (toks_[k].kind == TokKind::kPunct) {
      const std::size_t op = operator_lookback(k);
      if (op == kNpos) return;
      fn.name = "operator?";
      k = prev(op);
    } else if (is_ident(k, "operator")) {
      fn.name = "operator()";
      k = prev(k);
    } else {
      fn.name = toks_[k].text;
      fn.line = toks_[k].line;
      std::size_t b = prev(k);
      if (b != kNpos && b >= run_start && is_punct(b, "~")) {
        fn.name = "~" + fn.name;
        b = prev(b);
      }
      while (b != kNpos && b >= run_start && is_punct(b, "::")) {
        const std::size_t q = prev(b);
        if (q == kNpos || q < run_start || !is_ident(q)) break;
        qual_prefix = std::string(toks_[q].text) + "::" + qual_prefix;
        fn.has_explicit_qualifier = true;
        b = prev(q);
      }
      k = b;
    }
    if (fn.line == 0) fn.line = toks_[param_open].line;

    // Return type: what remains of the prefix after stripping specifiers,
    // attributes, and discipline macros. k is now the last return-type token.
    fn.return_type = join_type(run_start, k);

    // Annotations anywhere in the declaration head + trailing qualifiers.
    const std::size_t tail_end = body_open == kNpos ? find_run_end(param_close) : body_open;
    scan_annotations(fn, run_start, param_open);
    scan_annotations(fn, param_close, tail_end);

    std::string scope;
    for (const std::string& s : scopes_) {
      if (s.empty()) continue;
      scope += s;
      scope += "::";
    }
    fn.qualified = scope + qual_prefix + fn.name;

    if (body_open != kNpos) scan_body(fn, body_open);
    out_.functions.push_back(std::move(fn));
  }

  /// End of a declaration tail for annotation scanning: up to the `;`.
  [[nodiscard]] std::size_t find_run_end(std::size_t from) const {
    for (std::size_t j = from; j < toks_.size(); ++j) {
      if (is_punct(j, ";") || is_punct(j, "{")) return j;
    }
    return toks_.size();
  }

  void scan_annotations(FunctionModel& fn, std::size_t begin, std::size_t end) {
    for (std::size_t j = begin; j < end && j < toks_.size(); ++j) {
      if (!is_ident(j)) continue;
      const std::string_view s = toks_[j].text;
      if (s == "NETSEER_HOT") fn.hot = true;
      if (s == "NETSEER_HOT_ALLOW_INIT") fn.allow_init = true;
      if (s == "NETSEER_BLOCKING") fn.blocking = true;
      if (s == "nodiscard") fn.nodiscard = true;
      if (s == "NETSEER_REQUIRES") fn.requires_lock = true;
    }
  }

  [[nodiscard]] std::string join_type(std::size_t begin, std::size_t end_incl) const {
    std::string type;
    bool last_ident = false;
    if (end_incl == kNpos) return type;
    for (std::size_t j = begin; j <= end_incl && j < toks_.size(); ++j) {
      const Token& t = toks_[j];
      if (t.kind == TokKind::kPreproc) continue;
      if (t.kind == TokKind::kPunct && t.text == "[" && is_punct(j + 1, "[")) {
        // [[attribute]]: skip to the closing ]].
        std::size_t depth = 0;
        for (; j < toks_.size(); ++j) {
          if (is_punct(j, "[")) ++depth;
          if (is_punct(j, "]") && --depth == 0) break;
        }
        continue;
      }
      if (t.kind == TokKind::kIdent) {
        const std::string_view s = t.text;
        if (is_specifier(s) || s.substr(0, 8) == "NETSEER_") continue;
        if (last_ident) type += ' ';
        type += s;
        last_ident = true;
      } else {
        type += t.text;
        last_ident = false;
      }
    }
    return type;
  }

  // ---- body facts ----------------------------------------------------------

  void scan_body(FunctionModel& fn, std::size_t body_open) {
    int depth = 1;
    std::vector<int> lock_depths;
    const auto locks = [&] {
      return static_cast<int>(lock_depths.size()) + (fn.requires_lock ? 1 : 0);
    };
    std::size_t j = body_open + 1;
    for (; j < toks_.size() && depth > 0; ++j) {
      const Token& t = toks_[j];
      if (t.kind == TokKind::kPreproc) continue;
      if (t.kind == TokKind::kPunct) {
        if (t.text == "{") ++depth;
        if (t.text == "}") {
          --depth;
          while (!lock_depths.empty() && lock_depths.back() > depth) lock_depths.pop_back();
        }
        continue;
      }
      if (t.kind != TokKind::kIdent) continue;
      const std::string_view s = t.text;

      // `new` / placement-new.
      if (s == "new") {
        const std::size_t nx = next(j);
        if (nx != kNpos && !is_punct(nx, "(")) {  // `new (addr) T` is placement
          add_alloc(fn, "operator new", t.line);
        }
        continue;
      }

      // RAII lock declarations: MutexLock l(mu_); std::unique_lock<M> l(m);
      if (is_lock_type(s)) {
        std::size_t nx = next(j);
        if (nx != kNpos && is_punct(nx, "<")) {
          const std::size_t after = match_angle(nx);
          nx = after == kNpos ? kNpos : after;
        }
        if (nx != kNpos && is_ident(nx) && !is_keyword(toks_[nx].text)) {
          const std::size_t open = next(nx);
          if (open != kNpos && (is_punct(open, "(") || is_punct(open, "{"))) {
            lock_depths.push_back(depth);
          }
        }
        continue;
      }

      // Call candidate: ident ( ... ) or ident <...> ( ... ).
      std::size_t call_open = kNpos;
      {
        const std::size_t nx = next(j);
        if (nx != kNpos && is_punct(nx, "(")) {
          call_open = nx;
        } else if (nx != kNpos && is_punct(nx, "<")) {
          const std::size_t after = match_angle(nx);
          if (after != kNpos && is_punct(after, "(")) call_open = after;
        }
      }
      if (call_open == kNpos || is_keyword(s)) continue;

      const std::size_t pv = prev(j);
      const bool receiver =
          pv != kNpos && (is_punct(pv, ".") || is_punct(pv, "->"));
      std::string prefix;
      if (pv != kNpos && is_punct(pv, "::")) {
        const std::size_t q = prev(pv);
        prefix = (q != kNpos && is_ident(q)) ? std::string(toks_[q].text) : "::";
      }
      // `Type name(...)`: a declaration, not a call.
      if (!receiver && prefix.empty() && pv != kNpos && is_ident(pv) &&
          !is_keyword(toks_[pv].text)) {
        continue;
      }
      if (pv != kNpos && is_ident(pv) && is_keyword(toks_[pv].text) &&
          toks_[pv].text == "new") {
        continue;  // `new Fn(...)`: the alloc is already recorded
      }

      classify_call(fn, s, prefix, receiver, t.line, call_open, locks());
    }
  }

  void classify_call(FunctionModel& fn, std::string_view name, const std::string& prefix,
                     bool receiver, int line, std::size_t call_open, int locks) {
    if (is_direct_alloc_fn(name)) {
      add_alloc(fn, std::string(name), line);
    } else if (name == "make_unique" || name == "make_shared") {
      add_alloc(fn, "std::" + std::string(name), line);
    } else if (prefix == "std" && name == "to_string") {
      add_alloc(fn, "std::to_string", line);
    } else if (receiver && is_allocating_method(name)) {
      add_alloc(fn, "." + std::string(name), line);
    }

    if (receiver && (name == "wait" || name == "wait_for" || name == "wait_until")) {
      add_blocking(fn, "." + std::string(name), line, locks, /*cv=*/true);
    } else if (is_blocking_libc(name)) {
      add_blocking(fn, std::string(name), line, locks, /*cv=*/false);
    } else if (prefix == "::" && (name == "write" || name == "read" || name == "open" ||
                                  name == "close" || name == "fsync")) {
      add_blocking(fn, "::" + std::string(name), line, locks, /*cv=*/false);
    } else if ((prefix == "fs" || prefix == "filesystem") && is_blocking_fs(name)) {
      add_blocking(fn, "fs::" + std::string(name), line, locks, /*cv=*/false);
    }

    if (receiver && (name == "counter" || name == "gauge" || name == "histogram")) {
      record_metric_call(name, line, call_open);
    }

    fn.calls.push_back(FunctionModel::Call{std::string(name), prefix, line, receiver, locks});
  }

  void add_alloc(FunctionModel& fn, std::string what, int line) {
    if (suppressed(line, "hot-alloc")) return;
    fn.allocs.push_back(FunctionModel::Alloc{std::move(what), line});
  }

  void add_blocking(FunctionModel& fn, std::string what, int line, int locks, bool cv) {
    if (suppressed(line, "lock-blocking")) return;
    fn.blocking_ops.push_back(FunctionModel::BlockingOp{std::move(what), line, locks, cv});
  }

  void record_metric_call(std::string_view method, int line, std::size_t call_open) {
    MetricCall mc;
    mc.method = method;
    mc.line = line;
    // First two top-level arguments; literal if a single string token.
    int arg = 0;
    int depth = 0;
    std::vector<std::size_t> arg_toks;
    const auto finish_arg = [&] {
      if (arg_toks.size() == 1 && toks_[arg_toks[0]].kind == TokKind::kString) {
        const std::string text = strip_quotes(toks_[arg_toks[0]].text);
        if (arg == 0) {
          mc.subsystem = text;
          mc.subsystem_literal = true;
        } else if (arg == 1) {
          mc.metric = text;
          mc.metric_literal = true;
        }
      }
      arg_toks.clear();
      ++arg;
    };
    for (std::size_t j = call_open; j < toks_.size(); ++j) {
      const Token& t = toks_[j];
      if (t.kind == TokKind::kPunct) {
        if (t.text == "(") {
          if (++depth == 1) continue;
        } else if (t.text == ")") {
          if (--depth == 0) {
            finish_arg();
            break;
          }
        } else if (t.text == "," && depth == 1) {
          finish_arg();
          continue;
        }
      }
      if (depth >= 1) arg_toks.push_back(j);
      if (arg > 1) break;  // only the first two arguments matter
    }
    out_.metric_calls.push_back(std::move(mc));
  }

  const TokenStream& stream_;
  const TokenVec& toks_;
  FileModel out_;
  std::vector<std::string> scopes_;
  std::set<int> whole_line_comments_;
};

}  // namespace

FileModel build_model(const TokenStream& stream) { return Builder(stream).build(); }

bool is_suppressed(const FileModel& model, int line, const std::string& pass) {
  const auto it = model.suppressions.find(line);
  return it != model.suppressions.end() && it->second.count(pass) > 0;
}

}  // namespace netseer::lint
