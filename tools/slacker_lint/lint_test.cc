#include "tools/slacker_lint/lint.h"

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "gtest/gtest.h"

namespace slacker::lint {
namespace {

std::string ReadFixture(const std::string& name) {
  const std::string path = std::string(SLACKER_LINT_TESTDATA) + "/" + name;
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing fixture: " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

std::vector<Finding> LintSnippet(const std::string& fixture,
                                 const std::string& as_path) {
  Linter linter;
  linter.AddFile(as_path, ReadFixture(fixture));
  return linter.Run();
}

/// A shipped caller of every function the interface fixtures declare,
/// so slacker-test-only has nothing to say about them.
void AddInterfaceCaller(Linter* linter) {
  linter->AddFile("src/demo/use.cc",
                  "void Use(Thing* t) {\n"
                  "  t->Step(0);\n"
                  "  t->Reset();\n"
                  "  t->Read(0);\n"
                  "  t->Now();\n"
                  "  t->Next();\n"
                  "  t->Value();\n"
                  "}\n");
}

TEST(SlackerLintTest, ViolationsFixtureProducesExactFindings) {
  const std::vector<Finding> findings =
      LintSnippet("violations.snippet", "src/obs/violations.cc");

  // (line, rule) pairs, in (path, line, rule) order. The fixture pins
  // these line numbers in its comments.
  const std::vector<std::pair<int, std::string>> expected = {
      {12, "slacker-wallclock"},      {13, "slacker-wallclock"},
      {17, "slacker-raw-rand"},       {18, "slacker-raw-rand"},
      {22, "slacker-float-eq"},       {23, "slacker-float-eq"},
      {31, "slacker-unordered-iter"}, {33, "slacker-unordered-iter"},
      {37, "slacker-dropped-status"}, {38, "slacker-dropped-status"},
      {41, "slacker-dropped-status"},  // flow: local never consumed.
      {46, "slacker-wire-decode"},    {47, "slacker-wire-decode"},
      {52, "slacker-owner-flag"},     {53, "slacker-owner-flag"},
  };
  ASSERT_EQ(findings.size(), expected.size())
      << FindingsToText(findings);
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(findings[i].line, expected[i].first) << i;
    EXPECT_EQ(findings[i].rule, expected[i].second) << i;
    EXPECT_EQ(findings[i].path, "src/obs/violations.cc");
    EXPECT_FALSE(findings[i].message.empty());
  }
}

TEST(SlackerLintTest, CleanFixtureProducesNoFindings) {
  const std::vector<Finding> findings =
      LintSnippet("clean.snippet", "src/obs/clean.cc");
  EXPECT_TRUE(findings.empty()) << FindingsToText(findings);
}

TEST(SlackerLintTest, RandomModuleIsExemptFromRawRand) {
  Linter linter;
  linter.AddFile("src/common/random.cc",
                 "void Seed() { std::random_device rd; }\n");
  EXPECT_TRUE(linter.Run().empty());
}

TEST(SlackerLintTest, UnorderedIterationOnlyFlaggedUnderObs) {
  const std::string code =
      "#include <unordered_map>\n"
      "std::unordered_map<int, int> m_;\n"
      "void F() {\n"
      "  for (const auto& kv : m_) {\n"
      "  }\n"
      "}\n";
  Linter obs;
  obs.AddFile("src/obs/exporter.cc", code);
  ASSERT_EQ(obs.Run().size(), 1u);

  Linter engine;
  engine.AddFile("src/engine/cache.cc", code);
  EXPECT_TRUE(engine.Run().empty());
}

TEST(SlackerLintTest, WireDecodeOnlyFlaggedOutsideFrameLayer) {
  const std::string code =
      "void F(const unsigned char* b, char* d) {\n"
      "  memcpy(d, b, 4);\n"
      "  auto* h = reinterpret_cast<const int*>(b);\n"
      "}\n";
  for (const char* exempt : {"src/codec/frame.cc", "src/net/message.cc",
                             "src/common/bytes.cc"}) {
    Linter linter;
    linter.AddFile(exempt, code);
    EXPECT_TRUE(linter.Run().empty()) << exempt;
  }
  Linter outside;
  outside.AddFile("src/slacker/migration.cc", code);
  const auto findings = outside.Run();
  ASSERT_EQ(findings.size(), 2u) << FindingsToText(findings);
  EXPECT_EQ(findings[0].rule, "slacker-wire-decode");
  EXPECT_EQ(findings[1].rule, "slacker-wire-decode");
}

TEST(SlackerLintTest, OwnerFlagOnlyFlaggedUnderSrc) {
  const std::string code =
      "std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);\n"
      "std::weak_ptr< const bool > seen;\n"
      "std::shared_ptr<bool_vector> fine;\n";
  for (const char* outside : {"tests/migration_test.cc", "bench/fleet.cc"}) {
    Linter linter;
    linter.AddFile(outside, code);
    EXPECT_TRUE(linter.Run().empty()) << outside;
  }
  Linter inside;
  inside.AddFile("src/slacker/rebalancer.h", code);
  const auto findings = inside.Run();
  ASSERT_EQ(findings.size(), 2u) << FindingsToText(findings);
  EXPECT_EQ(findings[0].rule, "slacker-owner-flag");
  EXPECT_EQ(findings[0].line, 1);
  EXPECT_EQ(findings[1].rule, "slacker-owner-flag");
  EXPECT_EQ(findings[1].line, 2);
}

TEST(SlackerLintTest, UnsetOptionFieldsAreFlagged) {
  Linter linter;
  linter.AddFile("src/x/knobs.h",
                 "struct KnobOptions {\n"
                 "  int set_by_test = 1;\n"
                 "  double set_only_here = 2.0;\n"
                 "  bool never_set{false};\n"
                 "  size_t positional = 3;  // NOLINT(slacker-unset-option)\n"
                 "  int set_by_example = 6;\n"
                 "  int set_by_bench_test = 7;\n"
                 "  Status Validate() const;\n"
                 "  struct Inner {\n"
                 "    int nested = 4;\n"
                 "  };\n"
                 "};\n"
                 "inline void Reset(KnobOptions* o) { o->set_only_here = 0; }\n"
                 "struct Plain {\n"
                 "  int not_an_option = 5;\n"
                 "};\n");
  // A test file is no caller, whether it lives under tests/ or is named
  // *_test.cc elsewhere.
  linter.AddFile("tests/knobs_test.cc",
                 "void F(KnobOptions o) {\n"
                 "  o.set_by_test = 7;\n"
                 "}\n");
  linter.AddFile("bench/knobs_test.cc",
                 "void G(KnobOptions* o) { o->set_by_bench_test = 8; }\n");
  // An example is shipped code. Assignment across a line break still
  // counts; `==` does not.
  linter.AddFile("examples/knobs.cpp",
                 "void H(KnobOptions o) {\n"
                 "  o.\n"
                 "      set_by_example =\n"
                 "      7;\n"
                 "  if (o.never_set == true) return;\n"
                 "  Reset(&o);\n"
                 "  (void)o.Validate();\n"
                 "}\n");
  // Option structs outside src/ are not knobs of the library.
  linter.AddFile("bench/knobs.h", "struct BenchConfig {\n  int x = 1;\n};\n");
  const auto findings = linter.Run();
  ASSERT_EQ(findings.size(), 4u) << FindingsToText(findings);
  for (const auto& finding : findings) {
    EXPECT_EQ(finding.rule, "slacker-unset-option");
  }
  EXPECT_EQ(findings[0].line, 2);
  EXPECT_NE(findings[0].message.find("KnobOptions::set_by_test"),
            std::string::npos);
  EXPECT_EQ(findings[1].line, 3);
  EXPECT_NE(findings[1].message.find("KnobOptions::set_only_here"),
            std::string::npos);
  EXPECT_EQ(findings[2].line, 4);
  EXPECT_EQ(findings[3].line, 7);
  EXPECT_NE(findings[3].message.find("KnobOptions::set_by_bench_test"),
            std::string::npos);
}

TEST(SlackerLintTest, FieldsOfStructsHeldByOptionsAreFlagged) {
  Linter linter;
  linter.AddFile("src/demo/load.h", ReadFixture("held_option.snippet"));
  linter.AddFile("bench/load.cc",
                 "void F(demo::LoadConfig* c) {\n"
                 "  c->records = 5;\n"
                 "  c->mix.read = 0.9;\n"
                 "}\n");
  linter.AddFile("tests/load_test.cc",
                 "void G(demo::LoadConfig c) { c.mix.insert = 0.1; }\n");
  // A struct held only through a pointer is not a knob.
  const auto findings = linter.Run();
  ASSERT_EQ(findings.size(), 2u) << FindingsToText(findings);
  EXPECT_EQ(findings[0].rule, "slacker-unset-option");
  EXPECT_EQ(findings[0].line, 8);
  EXPECT_NE(findings[0].message.find("'Mix::insert'"), std::string::npos);
  EXPECT_EQ(findings[1].rule, "slacker-unset-option");
  EXPECT_EQ(findings[1].line, 9);
  EXPECT_NE(findings[1].message.find("'Mix::weight'"), std::string::npos);
}

TEST(SlackerLintTest, SingleImplementationInterfacesAreFlagged) {
  Linter linter;
  linter.AddFile("src/demo/single_impl.h", ReadFixture("single_impl.snippet"));
  AddInterfaceCaller(&linter);
  const std::vector<Finding> findings = linter.Run();
  ASSERT_EQ(findings.size(), 2u) << FindingsToText(findings);
  EXPECT_EQ(findings[0].rule, "slacker-single-impl");
  EXPECT_EQ(findings[0].line, 6);
  EXPECT_NE(findings[0].message.find("'Context' has 1 implementation"),
            std::string::npos);
  EXPECT_EQ(findings[1].rule, "slacker-single-impl");
  EXPECT_EQ(findings[1].line, 13);
  EXPECT_NE(findings[1].message.find("'Probe' has 0 implementation"),
            std::string::npos);

  // Outside src/ an interface is not the library's: no finding.
  EXPECT_TRUE(LintSnippet("single_impl.snippet", "tests/single_impl.h")
                  .empty());
}

TEST(SlackerLintTest, InterfacesWithTwoImplementationsAreQuiet) {
  Linter linter;
  linter.AddFile("src/demo/clean.h", ReadFixture("single_impl_clean.snippet"));
  AddInterfaceCaller(&linter);
  // A test fake counts as an implementation, qualified or not, with or
  // without an access specifier, its base list across lines.
  linter.AddFile("tests/demo_test.cc",
                 "struct FakeClock : demo::Clock {\n"
                 "  double Now() const override { return 1.0; }\n"
                 "};\n"
                 "class FakePlan\n"
                 "    : public Plan {\n"
                 "  int Next() override { return 2; }\n"
                 "};\n");
  const std::vector<Finding> findings = linter.Run();
  EXPECT_TRUE(findings.empty()) << FindingsToText(findings);

  // Without the test file each interface has one implementation.
  Linter alone;
  alone.AddFile("src/demo/clean.h", ReadFixture("single_impl_clean.snippet"));
  AddInterfaceCaller(&alone);
  const std::vector<Finding> flagged = alone.Run();
  ASSERT_EQ(flagged.size(), 2u) << FindingsToText(flagged);
  EXPECT_EQ(flagged[0].line, 6);
  EXPECT_EQ(flagged[1].line, 12);
}

/// The test_only.snippet header plus its definitions, a shipped
/// example, a test and, when `with_benchmark`, a callers-only file.
Linter TestOnlyLinter(bool with_benchmark) {
  Linter linter;
  linter.AddFile("src/demo/api.h", ReadFixture("test_only.snippet"));
  // Definition lines are no references.
  linter.AddFile("src/demo/api.cc",
                 "Api::Api(int seed) {}\n"
                 "int Api::Shipped() const { return 1; }\n"
                 "void Api::Unused() {}\n"
                 "void Api::TestOnly() {}\n"
                 "int FreeTestOnly(int x) { return x; }\n");
  // Shipped code constructs an Api without writing `Api(`.
  linter.AddFile("examples/demo.cpp",
                 "int Main() {\n"
                 "  demo::Api api(7);\n"
                 "  using demo::FreeHook;\n"
                 "  Register(&FreeHook);\n"
                 "  return api.Shipped();\n"
                 "}\n");
  linter.AddFile("tests/api_test.cc",
                 "void F(demo::Api* api) {\n"
                 "  api->TestOnly();\n"
                 "  (void)api->Observed();\n"
                 "  api->Hook();\n"
                 "  api->Reference();\n"
                 "  api->Unclassed();\n"
                 "  (void)demo::FreeTestOnly(1);\n"
                 "  demo::OnlyTests only;\n"
                 "}\n");
  if (with_benchmark) {
    // Read for its calls, never reported: not even its wall-clock read.
    linter.AddFile("perfbench/run.cc",
                   "double T() {\n"
                   "  (void)demo::FreeCalledByBenchmark(2);\n"
                   "  return std::chrono::steady_clock::now().count();\n"
                   "}\n",
                   /*callers_only=*/true);
  }
  return linter;
}

TEST(SlackerLintTest, TestOnlyFunctionsAreFlagged) {
  Linter linter = TestOnlyLinter(/*with_benchmark=*/true);
  const std::vector<Finding> findings = linter.Run();
  const std::vector<std::pair<int, std::string>> expected = {
      {10, "'Unused' has no caller"},
      {11, "'TestOnly' is reached only from tests"},
      {17, "must name its class"},
      {21, "'FreeTestOnly' is reached only from tests"},
      {26, "constructor of 'OnlyTests' is reached only from tests"},
  };
  ASSERT_EQ(findings.size(), expected.size()) << FindingsToText(findings);
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(findings[i].path, "src/demo/api.h") << i;
    EXPECT_EQ(findings[i].line, expected[i].first) << i;
    EXPECT_EQ(findings[i].rule, "slacker-test-only") << i;
    EXPECT_NE(findings[i].message.find(expected[i].second), std::string::npos)
        << findings[i].message;
  }

  // Without the callers-only root, the benchmark's function has none.
  Linter alone = TestOnlyLinter(/*with_benchmark=*/false);
  const std::vector<Finding> more = alone.Run();
  ASSERT_EQ(more.size(), expected.size() + 1) << FindingsToText(more);
  EXPECT_EQ(more[4].line, 22);
  EXPECT_NE(more[4].message.find("'FreeCalledByBenchmark' has no caller"),
            std::string::npos);
}

TEST(SlackerLintTest, AlwaysOkStatusFunctionsAreFlagged) {
  const std::vector<Finding> findings =
      LintSnippet("always_ok.snippet", "src/wal/recovery.cc");
  ASSERT_EQ(findings.size(), 2u) << FindingsToText(findings);
  EXPECT_EQ(findings[0].rule, "slacker-always-ok");
  EXPECT_EQ(findings[0].line, 6);
  EXPECT_NE(findings[0].message.find("'Replay'"), std::string::npos);
  EXPECT_EQ(findings[1].rule, "slacker-always-ok");
  EXPECT_EQ(findings[1].line, 28);
  EXPECT_NE(findings[1].message.find("'CountRows'"), std::string::npos);
}

TEST(SlackerLintTest, AmbiguousNamesAreNotFlagged) {
  // `Start` returns Status in one class and void in another: the
  // statement-position rule must stay quiet about it.
  Linter linter;
  linter.AddFile("src/a.h", "Status Start();\n");
  linter.AddFile("src/b.h", "void Start();\n");
  linter.AddFile("src/c.cc", "void F() {\n  Start();\n}\n");
  EXPECT_TRUE(linter.Run().empty());
}

TEST(SlackerLintTest, QualifiedAndMemberCallsAreFlagged) {
  Linter linter;
  linter.AddFile("src/a.h", "Status Replay(int x);\n");
  linter.AddFile("src/c.cc",
                 "void F(Thing* t) {\n"
                 "  wal::Replay(1);\n"
                 "  t->Replay(2);\n"
                 "}\n");
  const auto findings = linter.Run();
  ASSERT_EQ(findings.size(), 2u) << FindingsToText(findings);
  EXPECT_EQ(findings[0].line, 2);
  EXPECT_EQ(findings[1].line, 3);
}

TEST(SlackerLintTest, ContinuationLinesAreNotStatementPosition) {
  Linter linter;
  linter.AddFile("src/a.h", "Status Baz(int x);\n");
  linter.AddFile("src/c.cc",
                 "void F() {\n"
                 "  Consume(1,\n"
                 "          Baz(2));\n"
                 "}\n");
  EXPECT_TRUE(linter.Run().empty()) << FindingsToText(linter.Run());
}

TEST(SlackerLintTest, FlowDroppedLocalIsFlaggedAtDeclaration) {
  Linter linter;
  linter.AddFile("src/c.cc",
                 "Status Fetch();\n"
                 "void F() {\n"
                 "  Status s = Fetch();\n"
                 "}\n");
  const auto findings = linter.Run();
  ASSERT_EQ(findings.size(), 1u) << FindingsToText(findings);
  EXPECT_EQ(findings[0].rule, "slacker-dropped-status");
  EXPECT_EQ(findings[0].line, 3);
}

TEST(SlackerLintTest, FlowConsumedLocalsAreQuiet) {
  // Branch, return, (void), pass-as-argument, and reassignment-with-
  // self-use each count as consumption.
  Linter linter;
  linter.AddFile("src/c.cc",
                 "Status Fetch();\n"
                 "void Sink(Status s);\n"
                 "Status G() {\n"
                 "  Status a = Fetch();\n"
                 "  if (!a.ok()) return a;\n"
                 "  Status b = Fetch();\n"
                 "  (void)b;\n"
                 "  Status c = Fetch();\n"
                 "  Sink(std::move(c));\n"
                 "  Status d = Fetch();\n"
                 "  d = Wrap(d);\n"
                 "  return d;\n"
                 "}\n");
  EXPECT_TRUE(linter.Run().empty()) << FindingsToText(linter.Run());
}

TEST(SlackerLintTest, FlowPlainOverwriteIsNotConsumption) {
  // `t` is assigned twice and never read: both values are dropped.
  Linter linter;
  linter.AddFile("src/c.cc",
                 "Status Fetch();\n"
                 "void F() {\n"
                 "  Status t = Fetch();\n"
                 "  t = Fetch();\n"
                 "}\n");
  const auto findings = linter.Run();
  ASSERT_EQ(findings.size(), 1u) << FindingsToText(findings);
  EXPECT_EQ(findings[0].rule, "slacker-dropped-status");
  EXPECT_EQ(findings[0].line, 3);
}

TEST(SlackerLintTest, DefaultSwitchOverProjectEnumIsFlagged) {
  Linter linter;
  linter.AddFile("src/a.h", "enum class Kind { kA, kB };\n");
  linter.AddFile("src/c.cc",
                 "void F(Kind k) {\n"
                 "  switch (k) {\n"
                 "    case Kind::kA:\n"
                 "      break;\n"
                 "    default:\n"
                 "      break;\n"
                 "  }\n"
                 "}\n");
  const auto findings = linter.Run();
  ASSERT_EQ(findings.size(), 1u) << FindingsToText(findings);
  EXPECT_EQ(findings[0].rule, "slacker-default-switch");
  EXPECT_EQ(findings[0].line, 5);
}

TEST(SlackerLintTest, DefaultSwitchOverNonEnumOrSuppressedIsQuiet) {
  Linter linter;
  linter.AddFile("src/a.h", "enum class Kind { kA, kB };\n");
  linter.AddFile("src/c.cc",
                 "void F(int x, Kind k) {\n"
                 "  switch (x) {\n"
                 "    case 1:\n"
                 "      break;\n"
                 "    default:\n"
                 "      break;\n"
                 "  }\n"
                 "  switch (k) {\n"
                 "    case Kind::kA:\n"
                 "      break;\n"
                 "    default:  // NOLINT(slacker-default-switch): wire enum.\n"
                 "      break;\n"
                 "  }\n"
                 "}\n");
  EXPECT_TRUE(linter.Run().empty()) << FindingsToText(linter.Run());
}

TEST(SlackerLintTest, UnusedNolintMarkersAreFlagged) {
  Linter linter;
  linter.AddFile("src/c.cc",
                 "void F() {\n"
                 "  int x = 0;  // NOLINT\n"
                 "  int y = 0;  // NOLINT(slacker-wallclock)\n"
                 "  (void)x;\n"
                 "  (void)y;\n"
                 "}\n");
  const auto findings = linter.Run();
  ASSERT_EQ(findings.size(), 2u) << FindingsToText(findings);
  EXPECT_EQ(findings[0].rule, "slacker-unused-nolint");
  EXPECT_EQ(findings[0].line, 2);
  EXPECT_EQ(findings[1].rule, "slacker-unused-nolint");
  EXPECT_EQ(findings[1].line, 3);
}

TEST(SlackerLintTest, ForeignAndExercisedNolintMarkersAreQuiet) {
  Linter linter;
  linter.AddFile("src/c.cc",
                 // Exercised: float-eq actually fires on this line.
                 "bool F(double v) { return v == 1.5; }"
                 "  // NOLINT(slacker-float-eq): sweep point.\n"
                 // Foreign: clang-tidy's business, not ours.
                 "int g(int x) { return x; }  // NOLINT(bugprone-foo)\n");
  EXPECT_TRUE(linter.Run().empty()) << FindingsToText(linter.Run());
}

TEST(SlackerLintTest, NoteSuppressionUsedProtectsMarker) {
  // A marker exercised by an external pass (the layering analyzer)
  // must not be reported stale.
  Linter linter;
  linter.AddFile("src/c.cc",
                 "int a;  // NOLINT(slacker-layering): fixture.\n");
  const auto stale = [&] {
    Linter fresh;
    fresh.AddFile("src/c.cc",
                  "int a;  // NOLINT(slacker-layering): fixture.\n");
    return fresh.Run();
  }();
  ASSERT_EQ(stale.size(), 1u);
  EXPECT_EQ(stale[0].rule, "slacker-unused-nolint");

  linter.NoteSuppressionUsed("src/c.cc", 1);
  EXPECT_TRUE(linter.Run().empty());
}

TEST(SlackerLintTest, JsonReportIsStableAndEscaped) {
  std::vector<Finding> findings;
  Finding f;
  f.path = "src/a \"quoted\".cc";
  f.line = 7;
  f.rule = "slacker-wallclock";
  f.message = "msg";
  findings.push_back(f);
  const std::string json = FindingsToJson(findings);
  EXPECT_NE(json.find("\"line\": 7"), std::string::npos);
  EXPECT_NE(json.find("\\\"quoted\\\""), std::string::npos);
  EXPECT_EQ(FindingsToJson({}), "[]\n");
}

}  // namespace
}  // namespace slacker::lint
