// Unit tests for the netseer_lint engine: the token lexer, the file-model
// builder (functions, annotations, lock scopes, comment markers), and the
// five passes run over synthetic sources. The fixture suite (fixtures/,
// driven through the CLI in --check-expectations mode) covers the
// end-to-end diagnostics; these tests pin the layer contracts underneath.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "lexer.h"
#include "model.h"
#include "passes.h"

namespace netseer::lint {
namespace {

FileModel model_of(const std::string& path, const std::string& source) {
  return build_model(TokenStream::lex(path, source));
}

std::vector<Finding> lint(const std::string& path, const std::string& source,
                          bool fixture_mode = true) {
  PassOptions opt;
  opt.fixture_mode = fixture_mode;
  std::vector<FileModel> files;
  files.push_back(model_of(path, source));
  return run_passes(files, opt);
}

const FunctionModel* find_fn(const FileModel& m, const std::string& name) {
  for (const FunctionModel& fn : m.functions) {
    if (fn.name == name) return &fn;
  }
  return nullptr;
}

// ---- lexer -----------------------------------------------------------------

TEST(LintLexer, TokenKindsAndLines) {
  const TokenStream s = TokenStream::lex("t.cpp", "int x = 42;\nconst char* s = \"hi\";\n");
  ASSERT_GE(s.tokens().size(), 5u);
  EXPECT_EQ(s.tokens()[0].kind, TokKind::kIdent);
  EXPECT_EQ(s.tokens()[0].text, "int");
  EXPECT_EQ(s.tokens()[0].line, 1);
  bool saw_number = false;
  bool saw_string = false;
  for (const Token& t : s.tokens()) {
    if (t.kind == TokKind::kNumber && t.text == "42") saw_number = true;
    if (t.kind == TokKind::kString && t.line == 2) saw_string = true;
  }
  EXPECT_TRUE(saw_number);
  EXPECT_TRUE(saw_string);
}

TEST(LintLexer, CommentsLiftedToSideTable) {
  const TokenStream s =
      TokenStream::lex("t.cpp", "// whole line\nint x;  // trailing\n/* block */ int y;\n");
  ASSERT_EQ(s.comments().size(), 3u);
  EXPECT_TRUE(s.comments()[0].whole_line);
  EXPECT_EQ(s.comments()[0].line, 1);
  EXPECT_FALSE(s.comments()[1].whole_line);
  EXPECT_EQ(s.comments()[1].line, 2);
  // No comment text leaks into the token stream.
  for (const Token& t : s.tokens()) {
    EXPECT_EQ(t.text.find("whole"), std::string_view::npos);
  }
}

TEST(LintLexer, PreprocessorIsOneTokenPerLine) {
  const TokenStream s = TokenStream::lex("t.cpp", "#include \"util/sync.h\"\nint x;\n");
  ASSERT_FALSE(s.tokens().empty());
  EXPECT_EQ(s.tokens()[0].kind, TokKind::kPreproc);
  EXPECT_NE(s.tokens()[0].text.find("util/sync.h"), std::string_view::npos);
}

// ---- model builder ---------------------------------------------------------

TEST(LintModel, FunctionIdentityAndScopes) {
  const FileModel m = model_of("src/t.h",
                               "namespace net {\n"
                               "class Engine {\n"
                               " public:\n"
                               "  bool try_start(int n);\n"
                               "};\n"
                               "bool Engine::try_start(int n) { return n > 0; }\n"
                               "}  // namespace net\n");
  ASSERT_EQ(m.functions.size(), 2u);
  EXPECT_EQ(m.functions[0].qualified, "net::Engine::try_start");
  EXPECT_FALSE(m.functions[0].is_definition);
  EXPECT_EQ(m.functions[0].return_type, "bool");
  EXPECT_TRUE(m.functions[1].is_definition);
  EXPECT_TRUE(m.functions[1].has_explicit_qualifier);
  EXPECT_EQ(m.functions[1].qualified, "net::Engine::try_start");
}

TEST(LintModel, AnnotationsAndAllocFacts) {
  const FileModel m = model_of("src/t.h",
                               "NETSEER_HOT void fast() {\n"
                               "  buf.push_back(1);\n"
                               "  char* p = strdup(\"x\");\n"
                               "}\n"
                               "NETSEER_HOT_ALLOW_INIT void warm() { buf.reserve(8); }\n"
                               "NETSEER_BLOCKING [[nodiscard]] bool sync_all();\n");
  const FunctionModel* fast = find_fn(m, "fast");
  ASSERT_NE(fast, nullptr);
  EXPECT_TRUE(fast->hot);
  ASSERT_EQ(fast->allocs.size(), 2u);
  EXPECT_EQ(fast->allocs[0].what, ".push_back");
  EXPECT_EQ(fast->allocs[0].line, 2);
  EXPECT_EQ(fast->allocs[1].what, "strdup");
  const FunctionModel* warm = find_fn(m, "warm");
  ASSERT_NE(warm, nullptr);
  EXPECT_TRUE(warm->allow_init);
  const FunctionModel* sync_all = find_fn(m, "sync_all");
  ASSERT_NE(sync_all, nullptr);
  EXPECT_TRUE(sync_all->blocking);
  EXPECT_TRUE(sync_all->nodiscard);
}

TEST(LintModel, LockScopesCountAtCallSites) {
  const FileModel m = model_of("src/t.cpp",
                               "void f() {\n"
                               "  fsync(fd);\n"          // no lock
                               "  MutexLock lock(mu_);\n"
                               "  fsync(fd);\n"          // one lock
                               "  {\n"
                               "    std::unique_lock<std::mutex> l2(m2_);\n"
                               "    fsync(fd);\n"        // two locks
                               "  }\n"
                               "  fsync(fd);\n"          // inner scope closed: one lock
                               "}\n");
  const FunctionModel* f = find_fn(m, "f");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(f->blocking_ops.size(), 4u);
  EXPECT_EQ(f->blocking_ops[0].locks, 0);
  EXPECT_EQ(f->blocking_ops[1].locks, 1);
  EXPECT_EQ(f->blocking_ops[2].locks, 2);
  EXPECT_EQ(f->blocking_ops[3].locks, 1);
}

TEST(LintModel, SuppressionCoversCommentBlockTarget) {
  // A whole-line ALLOW governs the first code line after the comment
  // block, even with further justification lines in between.
  const FileModel m = model_of("src/t.cpp",
                               "void f() {\n"
                               "  // NETSEER_LINT_ALLOW(hot-alloc): growth is bounded\n"
                               "  // by the steady-state population.\n"
                               "  free_.push_back(p);\n"
                               "}\n");
  EXPECT_TRUE(is_suppressed(m, 4, "hot-alloc"));
  const FunctionModel* f = find_fn(m, "f");
  ASSERT_NE(f, nullptr);
  // The suppressed fact never reaches the model.
  EXPECT_TRUE(f->allocs.empty());
}

TEST(LintModel, ExpectationMarkersParse) {
  const FileModel m = model_of("t.cpp",
                               "// LINT-EXPECT: nodiscard\n"
                               "bool try_go();\n"
                               "bool sync();  // LINT-EXPECT: nodiscard\n");
  ASSERT_EQ(m.expectations.size(), 2u);
  EXPECT_EQ(m.expectations.count(2), 1u);  // whole-line marker targets next line
  EXPECT_EQ(m.expectations.count(3), 1u);  // trailing marker targets its own line
}

// ---- passes ----------------------------------------------------------------

TEST(LintPasses, HotAllocFlagsDirectAndChained) {
  const std::vector<Finding> fs = lint("t.cpp",
                                       "std::string helper(int v) { return std::to_string(v); }\n"
                                       "NETSEER_HOT void hot_direct() { buf.push_back(1); }\n"
                                       "NETSEER_HOT void hot_chain() { helper(2); }\n");
  ASSERT_EQ(fs.size(), 2u);
  EXPECT_EQ(fs[0].pass, "hot-alloc");
  EXPECT_EQ(fs[0].line, 2);
  EXPECT_EQ(fs[1].line, 3);
  EXPECT_NE(fs[1].message.find("helper()"), std::string::npos);
}

TEST(LintPasses, HotAllocCleanCalleeStaysQuiet) {
  const std::vector<Finding> fs = lint("t.cpp",
                                       "int helper(int v) { return v + 1; }\n"
                                       "NETSEER_HOT int hot_fn(int v) { return helper(v); }\n");
  EXPECT_TRUE(fs.empty());
}

TEST(LintPasses, HotAllocAllowInitEscapeHatch) {
  const std::vector<Finding> fs =
      lint("t.cpp",
           "NETSEER_HOT_ALLOW_INIT void grow() { buf.push_back(1); }\n"
           "NETSEER_HOT void hot_fn() { grow(); }\n");
  EXPECT_TRUE(fs.empty());
}

TEST(LintPasses, HotAllocAllowInitIsPerFunctionNotPerName) {
  // An exempt grow() in one file does not exempt another class's grow()
  // in a second file.
  PassOptions opt;
  opt.fixture_mode = true;
  std::vector<FileModel> files;
  files.push_back(model_of("a.h", "struct A {\n"
                                  "  NETSEER_HOT_ALLOW_INIT void grow() { buf.push_back(1); }\n"
                                  "};\n"));
  files.push_back(model_of("b.cpp", "void B::grow() { buf.push_back(1); }\n"
                                    "NETSEER_HOT void B::push() { grow(); }\n"));
  const std::vector<Finding> fs = run_passes(files, opt);
  ASSERT_EQ(fs.size(), 1u);
  EXPECT_EQ(fs[0].pass, "hot-alloc");
  EXPECT_EQ(fs[0].file, "b.cpp");
  EXPECT_EQ(fs[0].line, 2);
}

TEST(LintPasses, LockBlockingRequiresAnnotation) {
  const std::vector<Finding> bad = lint("t.cpp",
                                        "void f() {\n"
                                        "  MutexLock lock(mu_);\n"
                                        "  fsync(fd);\n"
                                        "}\n");
  ASSERT_EQ(bad.size(), 1u);
  EXPECT_EQ(bad[0].pass, "lock-blocking");
  EXPECT_EQ(bad[0].line, 3);

  const std::vector<Finding> ok = lint("t.cpp",
                                       "NETSEER_BLOCKING void f() {\n"
                                       "  MutexLock lock(mu_);\n"
                                       "  fsync(fd);\n"
                                       "}\n");
  EXPECT_TRUE(ok.empty());
}

TEST(LintPasses, CvWaitMayHoldOnlyItsOwnLock) {
  const std::vector<Finding> ok = lint("t.cpp",
                                       "void f() {\n"
                                       "  std::unique_lock<std::mutex> l(mu_);\n"
                                       "  cv_.wait(l);\n"
                                       "}\n",
                                       /*fixture_mode=*/false);
  EXPECT_TRUE(ok.empty());

  const std::vector<Finding> bad = lint("t.cpp",
                                        "void f() {\n"
                                        "  MutexLock outer(a_);\n"
                                        "  std::unique_lock<std::mutex> l(mu_);\n"
                                        "  cv_.wait(l);\n"
                                        "}\n",
                                        /*fixture_mode=*/false);
  ASSERT_EQ(bad.size(), 1u);
  EXPECT_EQ(bad[0].pass, "lock-blocking");
  EXPECT_EQ(bad[0].line, 4);
}

TEST(LintPasses, NodiscardDeclarationCoversDefinition) {
  const std::vector<Finding> fs = lint("src/t.h",
                                       "class W {\n"
                                       " public:\n"
                                       "  [[nodiscard]] bool sync();\n"
                                       "  bool try_push(int v);\n"
                                       "};\n"
                                       "bool W::sync() { return true; }\n",
                                       /*fixture_mode=*/false);
  ASSERT_EQ(fs.size(), 1u);
  EXPECT_EQ(fs[0].pass, "nodiscard");
  EXPECT_EQ(fs[0].line, 4);  // try_push, not the out-of-line sync definition
}

TEST(LintPasses, NodiscardOnlyAppliesToSrc) {
  const std::vector<Finding> fs =
      lint("tests/t.cpp", "bool try_push(int v);\n", /*fixture_mode=*/false);
  EXPECT_TRUE(fs.empty());
}

TEST(LintPasses, MetricNameConvention) {
  const std::vector<Finding> fs = lint("t.cpp",
                                       "void reg_metrics() {\n"
                                       "  reg.counter(\"Packet\", \"drops\").add(1);\n"
                                       "  reg.counter(\"packet\", \"drops.total\").add(1);\n"
                                       "}\n");
  ASSERT_EQ(fs.size(), 1u);
  EXPECT_EQ(fs[0].pass, "metric-name");
  EXPECT_EQ(fs[0].line, 2);
}

TEST(LintPasses, RawSyncScopedToSrcAndExemptions) {
  const std::string source = "class Q { std::mutex mu_; };\n";
  EXPECT_EQ(lint("src/q.h", source, /*fixture_mode=*/false).size(), 1u);
  EXPECT_TRUE(lint("tests/q.h", source, /*fixture_mode=*/false).empty());
  // util/sync.h wraps std::mutex by design.
  EXPECT_TRUE(lint("src/util/sync.h", source, /*fixture_mode=*/false).empty());
}

TEST(LintPasses, PassSelectionRestrictsOutput) {
  PassOptions opt;
  opt.fixture_mode = true;
  opt.only.insert("metric-name");
  std::vector<FileModel> files;
  files.push_back(model_of("t.cpp",
                           "class Q { std::mutex mu_; };\n"
                           "void f() { reg.counter(\"Bad.Sub\", \"x\").add(1); }\n"));
  const std::vector<Finding> fs = run_passes(files, opt);
  ASSERT_EQ(fs.size(), 1u);
  EXPECT_EQ(fs[0].pass, "metric-name");
}

TEST(LintPasses, AnnotationsMergeAcrossFilesByQualifiedName) {
  // NETSEER_BLOCKING on the header declaration covers the out-of-line
  // definition in another TU, and makes calls to it under a lock flagged.
  std::vector<FileModel> files;
  files.push_back(model_of("src/w.h",
                           "class W {\n"
                           " public:\n"
                           "  NETSEER_BLOCKING [[nodiscard]] bool sync();\n"
                           "};\n"));
  files.push_back(model_of("src/u.cpp",
                           "void f() {\n"
                           "  MutexLock lock(mu_);\n"
                           "  (void)wal_.sync();\n"
                           "}\n"));
  PassOptions opt;
  const std::vector<Finding> fs = run_passes(files, opt);
  ASSERT_EQ(fs.size(), 1u);
  EXPECT_EQ(fs[0].pass, "lock-blocking");
  EXPECT_EQ(fs[0].file, "src/u.cpp");
  EXPECT_EQ(fs[0].line, 3);
  EXPECT_NE(fs[0].message.find("NETSEER_BLOCKING"), std::string::npos);
}

TEST(LintPasses, FindingsAreSortedAndSuppressible) {
  const std::vector<Finding> fs = lint("t.cpp",
                                       "NETSEER_HOT void b() { buf.push_back(1); }\n"
                                       "// NETSEER_LINT_ALLOW(hot-alloc): fixture\n"
                                       "NETSEER_HOT void a() { buf.push_back(1); }\n");
  ASSERT_EQ(fs.size(), 1u);
  EXPECT_EQ(fs[0].line, 1);
}

}  // namespace
}  // namespace netseer::lint
