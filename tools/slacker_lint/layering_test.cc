#include "tools/slacker_lint/layering.h"

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "gtest/gtest.h"

namespace slacker::lint {
namespace {

// A miniature manifest mirroring the real contract's shape.
constexpr char kManifestJson[] = R"json({
  "layers": [
    ["common"],
    ["sim", "net", "resource"],
    ["obs", "engine"]
  ],
  "allow": [
    {"from": "net", "to": "resource", "why": "channel/link pairing"}
  ]
})json";

LayerManifest TestManifest() {
  LayerManifest manifest;
  std::string error;
  EXPECT_TRUE(ParseLayerManifest(kManifestJson, &manifest, &error)) << error;
  return manifest;
}

/// Loads every fixture file under testdata/layering/<tree> into an
/// analyzer (and a throwaway Linter) via the production AddPath.
int LoadFixtureTree(const std::string& tree, LayerAnalyzer* analyzer) {
  Linter linter;
  return AddPath(&linter,
                 std::string(SLACKER_LINT_TESTDATA) + "/layering/" + tree,
                 analyzer);
}

TEST(LayerManifestTest, ParsesLayersAndAllowList) {
  const LayerManifest manifest = TestManifest();
  EXPECT_EQ(manifest.LayerOf("common"), 0);
  EXPECT_EQ(manifest.LayerOf("net"), 1);
  EXPECT_EQ(manifest.LayerOf("engine"), 2);
  EXPECT_EQ(manifest.LayerOf("nonexistent"), -1);
  EXPECT_TRUE(manifest.IsAllowed("net", "resource"));
  EXPECT_FALSE(manifest.IsAllowed("resource", "net"));
}

TEST(LayerManifestTest, RejectsMalformedManifests) {
  LayerManifest m;
  std::string error;
  // Duplicate module.
  EXPECT_FALSE(ParseLayerManifest(
      R"({"layers": [["a"], ["a"]], "allow": []})", &m, &error));
  // Allow edge naming an undeclared module.
  EXPECT_FALSE(ParseLayerManifest(
      R"({"layers": [["a"], ["b"]],
          "allow": [{"from": "b", "to": "zz", "why": "w"}]})",
      &m, &error));
  // Downward allow edge (already legal, must be removed).
  EXPECT_FALSE(ParseLayerManifest(
      R"({"layers": [["a"], ["b"]],
          "allow": [{"from": "b", "to": "a", "why": "w"}]})",
      &m, &error));
  // Missing rationale (on an otherwise legal lateral edge).
  EXPECT_FALSE(ParseLayerManifest(
      R"({"layers": [["a", "b"]],
          "allow": [{"from": "a", "to": "b"}]})",
      &m, &error));
  // Not JSON at all.
  EXPECT_FALSE(ParseLayerManifest("layers: nope", &m, &error));
  EXPECT_FALSE(error.empty());
}

TEST(LayerManifestTest, RejectsUpwardAllowEdge) {
  LayerManifest m;
  std::string error;
  EXPECT_FALSE(ParseLayerManifest(
      R"({"layers": [["a"], ["b"]],
          "allow": [{"from": "a", "to": "b", "why": "w"}]})",
      &m, &error));
  EXPECT_NE(error.find("points upward"), std::string::npos) << error;
  // The same edge between same-layer modules is a legal exception.
  error.clear();
  EXPECT_TRUE(ParseLayerManifest(
      R"({"layers": [["a", "b"]],
          "allow": [{"from": "a", "to": "b", "why": "w"}]})",
      &m, &error))
      << error;
}

TEST(LayeringTest, PathNormalizationAndModuleOwnership) {
  EXPECT_EQ(NormalizePath("/abs/repo/src/net/wire.h"), "src/net/wire.h");
  EXPECT_EQ(NormalizePath("bench/harness.cc"), "bench/harness.cc");
  EXPECT_EQ(NormalizePath("gtest/gtest.h"), "");
  EXPECT_EQ(ModuleOf("src/net/wire.h"), "net");
  EXPECT_EQ(ModuleOf("bench/harness.cc"), "bench");
  EXPECT_EQ(ModuleOf("gtest/gtest.h"), "");
}

TEST(LayeringTest, UpwardIncludeFixtureIsFlagged) {
  LayerAnalyzer analyzer;
  ASSERT_EQ(LoadFixtureTree("upward", &analyzer), 2);
  const std::vector<Finding> findings = analyzer.Run(TestManifest());
  ASSERT_EQ(findings.size(), 1u) << FindingsToText(findings);
  EXPECT_EQ(findings[0].rule, "slacker-layering");
  EXPECT_EQ(findings[0].line, 5);  // The #include line in disk.h.
  EXPECT_NE(findings[0].path.find("src/resource/disk.h"),
            std::string::npos);
  EXPECT_NE(findings[0].message.find("upward"), std::string::npos);
}

TEST(LayeringTest, AllowedEdgeFixtureIsQuiet) {
  LayerAnalyzer analyzer;
  ASSERT_EQ(LoadFixtureTree("exempt", &analyzer), 2);
  const std::vector<Finding> findings = analyzer.Run(TestManifest());
  EXPECT_TRUE(findings.empty()) << FindingsToText(findings);
}

TEST(LayeringTest, IncludeCycleFixtureIsFlagged) {
  LayerAnalyzer analyzer;
  ASSERT_EQ(LoadFixtureTree("cycle", &analyzer), 2);
  const std::vector<Finding> findings = analyzer.Run(TestManifest());
  ASSERT_EQ(findings.size(), 1u) << FindingsToText(findings);
  EXPECT_EQ(findings[0].rule, "slacker-include-cycle");
  EXPECT_NE(findings[0].message.find("src/net/a.h"), std::string::npos);
  EXPECT_NE(findings[0].message.find("src/net/b.h"), std::string::npos);
}

TEST(LayeringTest, ModuleCycleIsFlaggedEvenWithoutFileCycle) {
  // net -> resource is allowed; a resource file including a *different*
  // net header closes a module-level cycle with no file-level cycle.
  LayerAnalyzer analyzer;
  analyzer.AddFile("src/net/chan.h", "#include \"src/resource/link.h\"\n");
  analyzer.AddFile("src/resource/link.h", "\n");
  analyzer.AddFile("src/resource/meter.h", "#include \"src/net/wire.h\"\n");
  analyzer.AddFile("src/net/wire.h", "\n");
  const std::vector<Finding> findings = analyzer.Run(TestManifest());
  bool module_cycle = false;
  for (const Finding& f : findings) {
    if (f.rule == "slacker-module-cycle") module_cycle = true;
  }
  EXPECT_TRUE(module_cycle) << FindingsToText(findings);
}

TEST(LayeringTest, NolintSuppressionIsHonoredAndRecorded) {
  LayerAnalyzer analyzer;
  analyzer.AddFile(
      "src/resource/disk.h",
      "#include \"src/obs/metric.h\"  // NOLINT(slacker-layering): test.\n");
  analyzer.AddFile("src/obs/metric.h", "\n");
  const std::vector<Finding> findings = analyzer.Run(TestManifest());
  EXPECT_TRUE(findings.empty()) << FindingsToText(findings);
  ASSERT_EQ(analyzer.used_suppressions().size(), 1u);
  EXPECT_EQ(analyzer.used_suppressions()[0].path, "src/resource/disk.h");
  EXPECT_EQ(analyzer.used_suppressions()[0].line, 1);
}

TEST(LayeringTest, ReportAndDotAreByteDeterministic) {
  // Two independent runs over the same fixture tree must serialize to
  // byte-identical JSON and DOT (CI double-runs and compares).
  std::string json[2];
  std::string dot[2];
  for (int i = 0; i < 2; ++i) {
    LayerAnalyzer analyzer;
    LoadFixtureTree("upward", &analyzer);
    LoadFixtureTree("cycle", &analyzer);
    const LayerManifest manifest = TestManifest();
    json[i] = FindingsToJson(analyzer.Run(manifest));
    dot[i] = analyzer.ModuleGraphDot(manifest);
  }
  EXPECT_EQ(json[0], json[1]);
  EXPECT_EQ(dot[0], dot[1]);
  EXPECT_NE(dot[0].find("digraph slacker_modules"), std::string::npos);
  EXPECT_NE(dot[0].find("VIOLATION"), std::string::npos);
}

TEST(LayeringTest, CheckedInManifestParses) {
  // The real contract file must always be loadable — the tree ctest
  // and CI lint job both feed it to --layers.
  std::ifstream in(std::string(SLACKER_LINT_LAYERS), std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing " << SLACKER_LINT_LAYERS;
  std::ostringstream buf;
  buf << in.rdbuf();
  LayerManifest manifest;
  std::string error;
  EXPECT_TRUE(ParseLayerManifest(buf.str(), &manifest, &error)) << error;
  EXPECT_GE(manifest.layers.size(), 4u);
  EXPECT_EQ(manifest.LayerOf("common"), 0);
}

}  // namespace
}  // namespace slacker::lint
