#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

namespace netseer::lint {

/// Token kinds the analysis passes care about. Preprocessor directives
/// are captured as one token per logical line (so `#include "x"` can be
/// resolved without a real preprocessor); comments are lifted out of the
/// stream into a side table (they carry LINT-EXPECT / NETSEER_LINT_ALLOW
/// markers, not code).
enum class TokKind : unsigned char {
  kIdent,
  kNumber,
  kString,
  kChar,
  kPunct,
  kPreproc,
};

struct Token {
  TokKind kind = TokKind::kPunct;
  std::string_view text;  // points into TokenStream::source()
  int line = 0;
};

struct Comment {
  int line = 0;           // line the comment starts on
  bool whole_line = false;  // nothing but whitespace precedes it
  std::string_view text;  // without the // or /* */ fences
};

/// Lexed view of one source file. Owns the file contents; tokens and
/// comments reference into it. This is deliberately a *lexer*, not a
/// preprocessor: macros are matched by name (NETSEER_HOT stays a single
/// identifier token), both arms of #if blocks are seen, and each
/// preprocessor line is one kPreproc token the model layer skips.
class TokenStream {
 public:
  /// Lex `contents` (as read from `path`). Never fails: unterminated
  /// constructs are closed at end-of-file.
  static TokenStream lex(std::string path, std::string contents);

  /// Convenience: read the file and lex it. Returns false on I/O error.
  static bool lex_file(const std::string& path, TokenStream* out);

  [[nodiscard]] const std::string& path() const { return path_; }
  [[nodiscard]] const std::string& source() const { return source_; }
  [[nodiscard]] const std::vector<Token>& tokens() const { return tokens_; }
  [[nodiscard]] const std::vector<Comment>& comments() const { return comments_; }

 private:
  std::string path_;
  std::string source_;
  std::vector<Token> tokens_;
  std::vector<Comment> comments_;
};

}  // namespace netseer::lint
