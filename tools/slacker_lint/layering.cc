#include "tools/slacker_lint/layering.h"

#include <algorithm>
#include <regex>
#include <sstream>
#include <tuple>

namespace slacker::lint {
namespace {

const char* const kProjectRoots[] = {"src", "bench", "tests", "tools",
                                     "examples"};

bool IsProjectRoot(const std::string& segment) {
  for (const char* root : kProjectRoots) {
    if (segment == root) return true;
  }
  return false;
}

std::vector<std::string> SplitPath(const std::string& path) {
  std::vector<std::string> parts;
  std::string::size_type start = 0;
  while (start < path.size()) {
    const auto slash = path.find('/', start);
    if (slash == std::string::npos) {
      parts.push_back(path.substr(start));
      break;
    }
    if (slash > start) parts.push_back(path.substr(start, slash - start));
    start = slash + 1;
  }
  return parts;
}

// --- Minimal JSON reader (objects/arrays/strings + skipped scalars) ---

class JsonCursor {
 public:
  explicit JsonCursor(const std::string& text) : text_(text) {}

  void SkipWs() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool AtEnd() {
    SkipWs();
    return pos_ >= text_.size();
  }

  char Peek() {
    SkipWs();
    return pos_ < text_.size() ? text_[pos_] : '\0';
  }

  bool Match(char c) {
    SkipWs();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool ParseString(std::string* out) {
    SkipWs();
    if (pos_ >= text_.size() || text_[pos_] != '"') return false;
    ++pos_;
    out->clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return true;
      if (c == '\\') {
        if (pos_ >= text_.size()) return false;
        const char esc = text_[pos_++];
        switch (esc) {
          case 'n':
            *out += '\n';
            break;
          case 't':
            *out += '\t';
            break;
          default:
            *out += esc;  // \" \\ \/ and anything exotic verbatim.
        }
      } else {
        *out += c;
      }
    }
    return false;  // Unterminated.
  }

  /// Skips one value of any JSON type (for unknown keys).
  bool SkipValue() {
    SkipWs();
    if (pos_ >= text_.size()) return false;
    const char c = text_[pos_];
    if (c == '"') {
      std::string ignored;
      return ParseString(&ignored);
    }
    if (c == '{' || c == '[') {
      const char close = c == '{' ? '}' : ']';
      ++pos_;
      if (Match(close)) return true;
      while (true) {
        if (close == '}') {
          std::string key;
          if (!ParseString(&key) || !Match(':')) return false;
        }
        if (!SkipValue()) return false;
        if (Match(close)) return true;
        if (!Match(',')) return false;
      }
    }
    // Bare scalar (number / true / false / null).
    while (pos_ < text_.size() && text_[pos_] != ',' && text_[pos_] != '}' &&
           text_[pos_] != ']' && text_[pos_] != ' ' && text_[pos_] != '\n' &&
           text_[pos_] != '\t' && text_[pos_] != '\r') {
      ++pos_;
    }
    return true;
  }

 private:
  const std::string& text_;
  size_t pos_ = 0;
};

bool ParseStringArray(JsonCursor* cur, std::vector<std::string>* out,
                      std::string* error) {
  if (!cur->Match('[')) {
    *error = "expected '['";
    return false;
  }
  if (cur->Match(']')) return true;
  while (true) {
    std::string s;
    if (!cur->ParseString(&s)) {
      *error = "expected string in array";
      return false;
    }
    out->push_back(std::move(s));
    if (cur->Match(']')) return true;
    if (!cur->Match(',')) {
      *error = "expected ',' or ']' in array";
      return false;
    }
  }
}

// --- Cycle detection (iterative Tarjan SCC) ----------------------------

/// Strongly connected components of `graph` (adjacency by node index),
/// each returned sorted; only components with >1 node or a self-loop
/// are reported. Deterministic for a fixed graph.
std::vector<std::vector<int>> CyclicComponents(
    const std::vector<std::vector<int>>& graph) {
  const int n = static_cast<int>(graph.size());
  std::vector<int> index(n, -1), lowlink(n, 0);
  std::vector<bool> on_stack(n, false);
  std::vector<int> stack;
  std::vector<std::vector<int>> cyclic;
  int next_index = 0;

  struct Frame {
    int node;
    size_t edge = 0;
  };
  for (int root = 0; root < n; ++root) {
    if (index[root] != -1) continue;
    std::vector<Frame> call_stack{{root}};
    index[root] = lowlink[root] = next_index++;
    stack.push_back(root);
    on_stack[root] = true;
    while (!call_stack.empty()) {
      Frame& frame = call_stack.back();
      const int v = frame.node;
      if (frame.edge < graph[v].size()) {
        const int w = graph[v][frame.edge++];
        if (index[w] == -1) {
          index[w] = lowlink[w] = next_index++;
          stack.push_back(w);
          on_stack[w] = true;
          call_stack.push_back({w});
        } else if (on_stack[w]) {
          lowlink[v] = std::min(lowlink[v], index[w]);
        }
      } else {
        if (lowlink[v] == index[v]) {
          std::vector<int> component;
          while (true) {
            const int w = stack.back();
            stack.pop_back();
            on_stack[w] = false;
            component.push_back(w);
            if (w == v) break;
          }
          bool self_loop = false;
          for (const int w : graph[v]) self_loop |= w == v;
          if (component.size() > 1 || self_loop) {
            std::sort(component.begin(), component.end());
            cyclic.push_back(std::move(component));
          }
        }
        call_stack.pop_back();
        if (!call_stack.empty()) {
          const int parent = call_stack.back().node;
          lowlink[parent] = std::min(lowlink[parent], lowlink[v]);
        }
      }
    }
  }
  std::sort(cyclic.begin(), cyclic.end());
  return cyclic;
}

const std::regex& IncludeRe() {
  static const std::regex re(R"re(^\s*#\s*include\s*"([^"]+)")re");
  return re;
}

void SortFindings(std::vector<Finding>* findings) {
  std::sort(findings->begin(), findings->end(),
            [](const Finding& a, const Finding& b) {
              if (a.path != b.path) return a.path < b.path;
              if (a.line != b.line) return a.line < b.line;
              return a.rule < b.rule;
            });
}

}  // namespace

int LayerManifest::LayerOf(const std::string& module) const {
  for (size_t i = 0; i < layers.size(); ++i) {
    for (const std::string& m : layers[i]) {
      if (m == module) return static_cast<int>(i);
    }
  }
  return -1;
}

bool LayerManifest::IsAllowed(const std::string& from,
                              const std::string& to) const {
  for (const AllowedEdge& edge : allow) {
    if (edge.from == from && edge.to == to) return true;
  }
  return false;
}

bool ParseLayerManifest(const std::string& json, LayerManifest* manifest,
                        std::string* error) {
  manifest->layers.clear();
  manifest->allow.clear();
  JsonCursor cur(json);
  if (!cur.Match('{')) {
    *error = "manifest must be a JSON object";
    return false;
  }
  if (!cur.Match('}')) {
    while (true) {
      std::string key;
      if (!cur.ParseString(&key) || !cur.Match(':')) {
        *error = "malformed manifest key";
        return false;
      }
      if (key == "layers") {
        if (!cur.Match('[')) {
          *error = "'layers' must be an array of arrays";
          return false;
        }
        if (!cur.Match(']')) {
          while (true) {
            std::vector<std::string> layer;
            if (!ParseStringArray(&cur, &layer, error)) return false;
            manifest->layers.push_back(std::move(layer));
            if (cur.Match(']')) break;
            if (!cur.Match(',')) {
              *error = "expected ',' or ']' in 'layers'";
              return false;
            }
          }
        }
      } else if (key == "allow") {
        if (!cur.Match('[')) {
          *error = "'allow' must be an array of objects";
          return false;
        }
        if (!cur.Match(']')) {
          while (true) {
            if (!cur.Match('{')) {
              *error = "'allow' entries must be objects";
              return false;
            }
            LayerManifest::AllowedEdge edge;
            if (!cur.Match('}')) {
              while (true) {
                std::string field, value;
                if (!cur.ParseString(&field) || !cur.Match(':') ||
                    !cur.ParseString(&value)) {
                  *error = "malformed 'allow' entry";
                  return false;
                }
                if (field == "from") edge.from = value;
                if (field == "to") edge.to = value;
                if (field == "why") edge.why = value;
                if (cur.Match('}')) break;
                if (!cur.Match(',')) {
                  *error = "expected ',' or '}' in 'allow' entry";
                  return false;
                }
              }
            }
            manifest->allow.push_back(std::move(edge));
            if (cur.Match(']')) break;
            if (!cur.Match(',')) {
              *error = "expected ',' or ']' in 'allow'";
              return false;
            }
          }
        }
      } else {
        if (!cur.SkipValue()) {
          *error = "malformed value for key '" + key + "'";
          return false;
        }
      }
      if (cur.Match('}')) break;
      if (!cur.Match(',')) {
        *error = "expected ',' or '}' at top level";
        return false;
      }
    }
  }

  // Validation: every module in exactly one layer; allow edges name
  // declared modules, are not self-edges, and are lateral: a downward
  // edge is already legal, and an upward one would turn the allow-list
  // into an escape hatch from the layering.
  if (manifest->layers.empty()) {
    *error = "manifest declares no layers";
    return false;
  }
  std::set<std::string> seen;
  for (const auto& layer : manifest->layers) {
    if (layer.empty()) {
      *error = "manifest declares an empty layer";
      return false;
    }
    for (const std::string& m : layer) {
      if (!seen.insert(m).second) {
        *error = "module '" + m + "' appears in more than one layer";
        return false;
      }
    }
  }
  for (const auto& edge : manifest->allow) {
    if (edge.from == edge.to) {
      *error = "allow edge '" + edge.from + "' -> itself is meaningless";
      return false;
    }
    const int from = manifest->LayerOf(edge.from);
    const int to = manifest->LayerOf(edge.to);
    if (from < 0 || to < 0) {
      *error = "allow edge '" + edge.from + "' -> '" + edge.to +
               "' names an undeclared module";
      return false;
    }
    if (to < from) {
      *error = "allow edge '" + edge.from + "' -> '" + edge.to +
               "' is already legal (strictly downward); remove it";
      return false;
    }
    if (to > from) {
      *error = "allow edge '" + edge.from + "' -> '" + edge.to +
               "' points upward; only lateral edges may be allowed";
      return false;
    }
    if (edge.why.empty()) {
      *error = "allow edge '" + edge.from + "' -> '" + edge.to +
               "' needs a 'why' rationale";
      return false;
    }
  }
  return true;
}

std::string NormalizePath(const std::string& path) {
  const std::vector<std::string> parts = SplitPath(path);
  for (size_t i = parts.size(); i-- > 0;) {
    if (IsProjectRoot(parts[i])) {
      std::string out;
      for (size_t j = i; j < parts.size(); ++j) {
        if (j > i) out += '/';
        out += parts[j];
      }
      return out;
    }
  }
  return "";
}

std::string ModuleOf(const std::string& path) {
  const std::string norm = NormalizePath(path);
  if (norm.empty()) return "";
  const std::vector<std::string> parts = SplitPath(norm);
  if (parts[0] == "src") {
    return parts.size() > 2 ? parts[1] : "";  // src/<module>/file.h
  }
  return parts[0];  // bench/tests/tools/examples own their trees.
}

void LayerAnalyzer::AddFile(const std::string& path,
                            const std::string& content) {
  FileNode node;
  node.path = path;
  node.norm = NormalizePath(path);
  node.module = ModuleOf(path);

  // Directive detection runs on masked text (so a commented-out
  // include is ignored) while the path itself is read from the raw
  // line, where the string body survives.
  const std::string masked = MaskCommentsAndStrings(content);
  std::istringstream raw_stream(content);
  std::istringstream masked_stream(masked);
  std::string raw_line, masked_line;
  int line_number = 0;
  std::smatch m;
  while (std::getline(raw_stream, raw_line)) {
    std::getline(masked_stream, masked_line);
    ++line_number;
    if (!std::regex_search(masked_line, m, IncludeRe())) continue;
    if (!std::regex_search(raw_line, m, IncludeRe())) continue;
    IncludeEdge edge;
    edge.line = line_number;
    edge.target = m[1].str();
    edge.raw_line = raw_line;
    node.includes.push_back(std::move(edge));
  }
  files_.push_back(std::move(node));
}

std::vector<Finding> LayerAnalyzer::Run(const LayerManifest& manifest) {
  module_edges_.clear();
  used_suppressions_.clear();
  std::vector<Finding> findings;

  auto emit = [&](const std::string& path, int line, const char* rule,
                  std::string message, const std::string& raw_line) {
    Finding f;
    f.path = path;
    f.line = line;
    f.rule = rule;
    f.message = std::move(message);
    if (!raw_line.empty() && IsSuppressed(raw_line, rule)) {
      used_suppressions_.push_back(std::move(f));
      return;
    }
    findings.push_back(std::move(f));
  };

  // Pass 1: per-include layering checks + module edge collection.
  for (const FileNode& file : files_) {
    if (file.module.empty()) continue;  // Not under a project root.
    const int from_layer = manifest.LayerOf(file.module);
    if (from_layer < 0) {
      emit(file.path, 1, "slacker-unknown-module",
           "module '" + file.module +
               "' is not declared in the layer manifest; add it to "
               "exactly one layer in tools/slacker_lint/layers.json",
           "");
      continue;
    }
    for (const IncludeEdge& inc : file.includes) {
      const std::string to_module = ModuleOf(inc.target);
      if (to_module.empty()) continue;  // External (<...>-style or gtest).
      if (to_module == file.module) continue;
      const int to_layer = manifest.LayerOf(to_module);
      if (to_layer < 0) {
        emit(file.path, inc.line, "slacker-unknown-module",
             "include of '" + inc.target + "': module '" + to_module +
                 "' is not declared in the layer manifest",
             inc.raw_line);
        continue;
      }
      module_edges_.emplace(
          std::make_pair(file.module, to_module),
          std::make_tuple(file.path, inc.line, inc.target));
      if (to_layer < from_layer) continue;  // Strictly downward: legal.
      if (manifest.IsAllowed(file.module, to_module)) continue;
      const bool lateral = to_layer == from_layer;
      emit(file.path, inc.line, "slacker-layering",
           "include of '" + inc.target + "' (module '" + to_module +
               "', layer " + std::to_string(to_layer) + ") from module '" +
               file.module + "' (layer " + std::to_string(from_layer) +
               ") is " + (lateral ? "lateral" : "upward") +
               "; move the shared type down, forward-declare, or add a "
               "justified edge to layers.json",
           inc.raw_line);
    }
  }

  // Pass 2: file-level include cycles (SCC over the include graph).
  std::map<std::string, int> node_of;
  for (const FileNode& file : files_) {
    if (!file.norm.empty() && node_of.find(file.norm) == node_of.end()) {
      const int id = static_cast<int>(node_of.size());
      node_of[file.norm] = id;
    }
  }
  std::vector<std::vector<int>> graph(node_of.size());
  std::vector<const FileNode*> node_file(node_of.size(), nullptr);
  for (const FileNode& file : files_) {
    if (file.norm.empty()) continue;
    const int from = node_of[file.norm];
    if (node_file[from] == nullptr) node_file[from] = &file;
    for (const IncludeEdge& inc : file.includes) {
      const auto it = node_of.find(NormalizePath(inc.target));
      if (it != node_of.end()) graph[from].push_back(it->second);
    }
  }
  for (auto& adjacency : graph) {
    std::sort(adjacency.begin(), adjacency.end());
    adjacency.erase(std::unique(adjacency.begin(), adjacency.end()),
                    adjacency.end());
  }
  std::vector<std::string> node_name(node_of.size());
  for (const auto& [name, id] : node_of) node_name[id] = name;
  for (const std::vector<int>& component : CyclicComponents(graph)) {
    // Anchor the finding at the lexicographically smallest member, on
    // the first include that stays inside the component.
    std::vector<std::string> members;
    for (const int id : component) members.push_back(node_name[id]);
    std::sort(members.begin(), members.end());
    const FileNode* anchor = node_file[node_of[members[0]]];
    int line = 1;
    std::string raw_line;
    std::set<std::string> member_set(members.begin(), members.end());
    for (const IncludeEdge& inc : anchor->includes) {
      if (member_set.count(NormalizePath(inc.target)) != 0) {
        line = inc.line;
        raw_line = inc.raw_line;
        break;
      }
    }
    std::string chain;
    for (const std::string& member : members) {
      if (!chain.empty()) chain += " -> ";
      chain += member;
    }
    emit(anchor->path, line, "slacker-include-cycle",
         "include cycle among " + std::to_string(members.size()) +
             " file(s): " + chain +
             "; break it with a forward declaration or a split header",
         raw_line);
  }

  // Pass 3: module-level cycles over the observed edges (allowed edges
  // included — a cycle here means the manifest itself is broken).
  std::map<std::string, int> mod_of;
  for (const auto& [edge, witness] : module_edges_) {
    (void)witness;
    if (mod_of.find(edge.first) == mod_of.end()) {
      const int id = static_cast<int>(mod_of.size());
      mod_of[edge.first] = id;
    }
    if (mod_of.find(edge.second) == mod_of.end()) {
      const int id = static_cast<int>(mod_of.size());
      mod_of[edge.second] = id;
    }
  }
  std::vector<std::vector<int>> mod_graph(mod_of.size());
  for (const auto& [edge, witness] : module_edges_) {
    (void)witness;
    mod_graph[mod_of[edge.first]].push_back(mod_of[edge.second]);
  }
  for (auto& adjacency : mod_graph) {
    std::sort(adjacency.begin(), adjacency.end());
  }
  std::vector<std::string> mod_name(mod_of.size());
  for (const auto& [name, id] : mod_of) mod_name[id] = name;
  for (const std::vector<int>& component : CyclicComponents(mod_graph)) {
    std::vector<std::string> members;
    for (const int id : component) members.push_back(mod_name[id]);
    std::sort(members.begin(), members.end());
    std::string chain;
    for (const std::string& member : members) {
      if (!chain.empty()) chain += " <-> ";
      chain += member;
    }
    // Witness: the first observed edge inside the component.
    std::string path = "<module-graph>";
    int line = 0;
    for (const auto& [edge, witness] : module_edges_) {
      if (std::find(members.begin(), members.end(), edge.first) !=
              members.end() &&
          std::find(members.begin(), members.end(), edge.second) !=
              members.end()) {
        path = std::get<0>(witness);
        line = std::get<1>(witness);
        break;
      }
    }
    emit(path, line, "slacker-module-cycle",
         "module dependency cycle: " + chain +
             "; the layer DAG admits no cycle regardless of allow "
             "entries — invert one dependency (interface in the lower "
             "module)",
         "");
  }

  SortFindings(&findings);
  SortFindings(&used_suppressions_);
  return findings;
}

std::string LayerAnalyzer::ModuleGraphDot(
    const LayerManifest& manifest) const {
  std::ostringstream out;
  out << "digraph slacker_modules {\n";
  out << "  rankdir=BT;\n";
  out << "  node [shape=box, fontname=\"Helvetica\"];\n";

  // Declared modules grouped by layer; undeclared-but-observed modules
  // float outside the clusters.
  std::set<std::string> declared;
  for (size_t i = 0; i < manifest.layers.size(); ++i) {
    out << "  subgraph cluster_layer" << i << " {\n";
    out << "    label=\"layer " << i << "\";\n";
    out << "    style=dashed;\n";
    std::vector<std::string> layer = manifest.layers[i];
    std::sort(layer.begin(), layer.end());
    for (const std::string& m : layer) {
      out << "    \"" << m << "\";\n";
      declared.insert(m);
    }
    out << "  }\n";
  }
  std::set<std::string> stray;
  for (const auto& [edge, witness] : module_edges_) {
    (void)witness;
    if (declared.count(edge.first) == 0) stray.insert(edge.first);
    if (declared.count(edge.second) == 0) stray.insert(edge.second);
  }
  for (const std::string& m : stray) {
    out << "  \"" << m << "\" [color=\"#cc3311\"];\n";
  }

  for (const auto& [edge, witness] : module_edges_) {
    (void)witness;
    const int from = manifest.LayerOf(edge.first);
    const int to = manifest.LayerOf(edge.second);
    out << "  \"" << edge.first << "\" -> \"" << edge.second << "\"";
    if (from >= 0 && to >= 0 && to < from) {
      out << ";  // conforming\n";
    } else if (manifest.IsAllowed(edge.first, edge.second)) {
      out << " [style=dashed, color=\"#4477aa\", label=\"allowed\"];\n";
    } else {
      out << " [color=\"#cc3311\", penwidth=2.0, label=\"VIOLATION\"];\n";
    }
  }
  out << "}\n";
  return out.str();
}

}  // namespace slacker::lint
