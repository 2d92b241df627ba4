#include "tools/slacker_lint/lint.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <regex>
#include <sstream>

#include "tools/slacker_lint/layering.h"

namespace slacker::lint {
namespace {

std::vector<std::string> SplitLines(const std::string& s) {
  std::vector<std::string> lines;
  std::string::size_type start = 0;
  while (start <= s.size()) {
    const auto nl = s.find('\n', start);
    if (nl == std::string::npos) {
      lines.push_back(s.substr(start));
      break;
    }
    lines.push_back(s.substr(start, nl - start));
    start = nl + 1;
  }
  return lines;
}

bool PathContains(const std::string& path, const std::string& needle) {
  return path.find(needle) != std::string::npos;
}

/// A file under tests/ or named *_test.cc: its assignments exercise a
/// knob but give it no caller.
bool IsTestFile(const std::string& path) {
  const std::string suffix = "_test.cc";
  return path.rfind("tests/", 0) == 0 || PathContains(path, "/tests/") ||
         (path.size() >= suffix.size() &&
          path.compare(path.size() - suffix.size(), suffix.size(), suffix) ==
              0);
}

const char* const kDeclKeywords[] = {
    "return", "co_return", "else",    "delete", "throw", "new",
    "case",   "goto",      "typedef", "using",  "if",    "while",
    "for",    "switch",    "do",      "sizeof", "not"};

bool IsDeclKeyword(const std::string& word) {
  for (const char* k : kDeclKeywords) {
    if (word == k) return true;
  }
  return false;
}

bool IsWordChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

/// True if `name` occurs in `text` as a whole identifier.
bool ContainsWord(const std::string& text, const std::string& name) {
  std::string::size_type pos = 0;
  while ((pos = text.find(name, pos)) != std::string::npos) {
    const bool left_ok = pos == 0 || !IsWordChar(text[pos - 1]);
    const auto end = pos + name.size();
    const bool right_ok = end >= text.size() || !IsWordChar(text[end]);
    if (left_ok && right_ok) return true;
    pos += 1;
  }
  return false;
}

// --- Rule regexes (compiled once) ---------------------------------------

const std::regex& WallclockRe() {
  static const std::regex re(
      R"((std::chrono::)?(system_clock|steady_clock|high_resolution_clock)\s*::|\b(gettimeofday|clock_gettime|localtime|gmtime|strftime)\s*\(|(^|[^\w.>])time\s*\()");
  return re;
}

const std::regex& RawRandRe() {
  static const std::regex re(
      R"(\b(rand|srand|random)\s*\(|std::random_device)");
  return re;
}

/// Byte-level reinterpretation of wire data: reinterpret_cast or raw
/// memcpy decoding. Outside src/codec + src/net (the frame layer) and
/// src/common (ByteReader/ByteWriter internals), wire bytes must go
/// through the checksummed codec/net decoders.
const std::regex& WireDecodeRe() {
  static const std::regex re(R"(\breinterpret_cast\s*<|\bmemcpy\s*\()");
  return re;
}

/// A heap-allocated bool used as an owner-liveness flag.
const std::regex& OwnerFlagRe() {
  static const std::regex re(
      R"(\b(shared_ptr|weak_ptr|make_shared)\s*<\s*(const\s+)?bool\s*>)");
  return re;
}

const std::regex& FloatEqRe() {
  static const std::regex re(
      R"([=!]=\s*[0-9]+\.[0-9]*(e-?[0-9]+)?f?\b|[0-9]+\.[0-9]*(e-?[0-9]+)?f?\s*[=!]=)");
  return re;
}

const std::regex& UnorderedDeclRe() {
  static const std::regex re(
      R"(unordered_(map|set)\s*<[^;]*>\s+(\w+)\s*(;|=|\{))");
  return re;
}

/// `Status Foo(` / `Result<T> Class::Foo(` declaration or definition
/// starting a line (after optional specifiers).
const std::regex& StatusDeclRe() {
  static const std::regex re(
      R"(^\s*(?:\[\[nodiscard\]\]\s*)?(?:virtual\s+|static\s+|inline\s+|constexpr\s+|friend\s+|explicit\s+)*(?:slacker::)?(Status|Result\s*<[^;{}()]*>)\s+(?:\w+::)*(\w+)\s*\()");
  return re;
}

/// Any other `<type> Foo(` declaration starting a line; used to retire
/// names that are ambiguous across the scanned tree.
const std::regex& OtherDeclRe() {
  static const std::regex re(
      R"(^\s*(?:\[\[nodiscard\]\]\s*)?(?:virtual\s+|static\s+|inline\s+|constexpr\s+|friend\s+|explicit\s+)*((?:\w+::)*\w+)(?:\s*<[^;{}()]*>)?(?:\s*[*&]+)?\s+(?:\w+::)*(\w+)\s*\()");
  return re;
}

/// A bare call in statement position: optional `obj.` / `ptr->` /
/// `ns::` qualification chain, a callee name, `(`, and the line must
/// end the statement (`);`).
const std::regex& StatementCallRe() {
  static const std::regex re(
      R"(^\s*((?:[A-Za-z_]\w*(?:\(\))?(?:\.|->|::))*)([A-Za-z_]\w*)\s*\(.*\)\s*;\s*$)");
  return re;
}

/// A named enum declaration (plain or scoped).
const std::regex& EnumDeclRe() {
  static const std::regex re(R"(\benum\s+(?:class\s+|struct\s+)?(\w+))");
  return re;
}

/// `Status s = ...` / `Result<T> s = ...` / bare `Status s` local
/// declaration, matched against a whole (joined) statement.
const std::regex& StatusLocalRe() {
  static const std::regex re(
      R"(^\s*(?:const\s+)?(?:slacker::)?(?:Status|Result\s*<[^;{}]*>)\s+(\w+)\s*(=(?!=)|$))");
  return re;
}

/// `name = <rest>` pure reassignment (not ==, not +=).
const std::regex& ReassignRe() {
  static const std::regex re(R"(^\s*(\w+)\s*=(?!=)(.*)$)");
  return re;
}

/// A struct header line (not a forward declaration): group 1 its name.
const std::regex& StructHeadRe() {
  static const std::regex re(R"(^\s*struct\s+(\w+)\b[^;]*$)");
  return re;
}

/// A data member held by value: group 1 its type, possibly qualified.
const std::regex& ValueMemberRe() {
  static const std::regex re(
      R"(^\s*(?:const\s+)?((?:\w+::)*\w+)\s+\w+\s*(?:=(?!=)|\{|;))");
  return re;
}

/// A scalar data member with a default initializer (`= v` or `{v}`).
const std::regex& ScalarMemberRe() {
  static const std::regex re(
      R"(^\s*(?:const\s+)?(?:std::)?(?:bool|char|short|int|long|unsigned|float|double|size_t|u?int(?:8|16|32|64)_t|SimTime)\s+(\w+)\s*(?:=(?!=)|\{))");
  return re;
}

/// A class/struct header line that opens a definition (no `;` after
/// the name, so not a forward declaration); `enum class` is captured in
/// group 1 so callers can skip it.
const std::regex& ClassHeadRe() {
  static const std::regex re(
      R"((\benum\s+)?\b(?:class|struct)\s+(?:\[\[[^\]]*\]\]\s*)?(\w+)\b[^;]*$)");
  return re;
}

/// A pure-specifier after a member function's parameter list.
const std::regex& PureVirtualRe() {
  static const std::regex re(
      R"(\)\s*(?:const\s*)?(?:noexcept\s*)?(?:override\s*)?=\s*0\s*;)");
  return re;
}

/// A class definition with a base list, over a whole (joined) file:
/// group 1 `enum ` (skipped), group 2 the class, group 3 its bases.
const std::regex& DerivedClassRe() {
  static const std::regex re(
      R"((\benum\s+)?\b(?:class|struct)\s+(?:\[\[[^\]]*\]\]\s*)?(\w+)\s*(?:final\s*)?:(?!:)([^{;]*)\{)");
  return re;
}

/// The unqualified class names in a base list such as
/// `public workload::TenantResolver, private Foo<int>`.
std::vector<std::string> BaseNames(const std::string& bases) {
  std::vector<std::string> names;
  std::string part;
  int angle = 0;
  const auto flush = [&] {
    std::string name;
    for (size_t i = 0; i < part.size();) {
      if (!IsWordChar(part[i])) {
        ++i;
        continue;
      }
      size_t end = i;
      while (end < part.size() && IsWordChar(part[end])) ++end;
      const std::string word = part.substr(i, end - i);
      if (word != "public" && word != "protected" && word != "private" &&
          word != "virtual") {
        name = word;  // The last identifier wins: `ns::X` -> `X`.
      }
      i = end;
    }
    if (!name.empty()) names.push_back(name);
    part.clear();
  };
  for (const char c : bases) {
    if (c == '<') {
      ++angle;
    } else if (c == '>') {
      --angle;
    } else if (angle == 0 && c == ',') {
      flush();
    } else if (angle == 0) {
      part += c;
    }
  }
  flush();
  return names;
}

/// Member names that `masked` assigns: `.name =` or `->name =` (not
/// `==`), with whitespace and line breaks allowed around the name.
std::vector<std::string> AssignedMemberNames(
    const std::vector<std::string>& masked) {
  std::string text;
  for (const std::string& line : masked) {
    text += line;
    text += '\n';
  }
  const auto skip_space = [&](size_t i) {
    while (i < text.size() &&
           std::isspace(static_cast<unsigned char>(text[i])) != 0) {
      ++i;
    }
    return i;
  };
  std::vector<std::string> names;
  for (size_t i = 0; i < text.size(); ++i) {
    size_t after = 0;
    if (text[i] == '.') {
      after = i + 1;
    } else if (text[i] == '-' && i + 1 < text.size() && text[i + 1] == '>') {
      after = i + 2;
    } else {
      continue;
    }
    const size_t begin = skip_space(after);
    size_t end = begin;
    while (end < text.size() && IsWordChar(text[end])) ++end;
    if (end == begin || std::isdigit(static_cast<unsigned char>(text[begin]))) {
      continue;
    }
    const size_t eq = skip_space(end);
    if (eq < text.size() && text[eq] == '=' &&
        (eq + 1 == text.size() || text[eq + 1] != '=')) {
      names.push_back(text.substr(begin, end - begin));
    }
  }
  return names;
}

/// A NOLINT marker at the start of a comment (distinguishes real
/// markers from prose that merely mentions NOLINT).
const std::regex& NolintMarkerRe() {
  static const std::regex re(R"(//\s*NOLINT\b\s*(\(([^)]*)\))?)");
  return re;
}

std::string Trim(const std::string& s) {
  const auto first = s.find_first_not_of(" \t");
  if (first == std::string::npos) return "";
  const auto last = s.find_last_not_of(" \t");
  return s.substr(first, last - first + 1);
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

bool StartsWithWord(const std::string& text, size_t pos,
                    const std::string& word) {
  return text.compare(pos, word.size(), word) == 0 &&
         (pos + word.size() >= text.size() ||
          !IsWordChar(text[pos + word.size()]));
}

/// `s` without leading and trailing whitespace, newlines included.
std::string TrimSpace(const std::string& s) {
  const auto first = s.find_first_not_of(" \t\n");
  if (first == std::string::npos) return "";
  return s.substr(first, s.find_last_not_of(" \t\n") - first + 1);
}

/// Index where the declaration in `stmt` begins, past whitespace,
/// `template <...>` heads and `[[...]]` attributes.
size_t DeclStart(const std::string& stmt) {
  size_t pos = 0;
  for (;;) {
    pos = stmt.find_first_not_of(" \t\n", pos);
    if (pos == std::string::npos) return stmt.size();
    if (StartsWithWord(stmt, pos, "template")) {
      int angle = 0;
      size_t i = stmt.find('<', pos);
      for (; i != std::string::npos && i < stmt.size(); ++i) {
        if (stmt[i] == '<') ++angle;
        if (stmt[i] == '>' && --angle == 0) break;
      }
      if (i == std::string::npos || i >= stmt.size()) return pos;
      pos = i + 1;
    } else if (stmt.compare(pos, 2, "[[") == 0) {
      const auto close = stmt.find("]]", pos);
      if (close == std::string::npos) return pos;
      pos = close + 2;
    } else {
      return pos;
    }
  }
}

/// Index of the `)` matching the `(` at `open`, or npos.
size_t MatchingParen(const std::string& text, size_t open) {
  int depth = 0;
  for (size_t i = open; i < text.size(); ++i) {
    if (text[i] == '(') ++depth;
    if (text[i] == ')' && --depth == 0) return i;
  }
  return std::string::npos;
}

/// The first `(` outside template brackets, or npos when an `=` comes
/// first (a variable's initializer, not a parameter list).
size_t ParamListOpen(const std::string& text) {
  int angle = 0;
  for (size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (c == '<') {
      ++angle;
    } else if (c == '>' && angle > 0 && (i == 0 || text[i - 1] != '-')) {
      --angle;
    } else if (angle == 0 && c == '=') {
      return std::string::npos;
    } else if (angle == 0 && c == '(') {
      return i;
    }
  }
  return std::string::npos;
}

/// True for a statement that opens or declares a class: `class X`,
/// `struct [[nodiscard]] Y : Z`, `union U` (not `struct S* F()`).
bool IsClassHead(const std::string& text, std::string* name) {
  static const std::regex re(
      R"(^(?:class|struct|union)\s+(?:\[\[[^\]]*\]\]\s*)?(\w*))");
  std::smatch m;
  if (!std::regex_search(text, m, re) ||
      ParamListOpen(text) != std::string::npos) {
    return false;
  }
  *name = m[1].str();
  return true;
}

/// A constructor's member-initializer list has begun: the parameter
/// list is closed and followed by a single `:`.
bool InInitializerList(const std::string& text) {
  const size_t open = ParamListOpen(text);
  if (open == std::string::npos) return false;
  const size_t close = MatchingParen(text, open);
  if (close == std::string::npos) return false;
  const size_t colon = text.find_first_not_of(" \t\n", close + 1);
  return colon != std::string::npos && text[colon] == ':' &&
         (colon + 1 >= text.size() || text[colon + 1] != ':');
}

bool IsStatusType(const std::string& type) {
  static const std::regex re(R"(^(?:slacker::)?(?:Status|Result\s*<.*>)$)");
  return std::regex_match(type, re);
}

/// True if the `'` at `quote` is a digit separator (`1'000'000`): the
/// token before it starts with a digit. `u8'a'` starts with a letter.
bool InNumber(const std::string& text, size_t quote) {
  size_t begin = quote;
  while (begin > 0 && IsWordChar(text[begin - 1])) --begin;
  return begin < quote &&
         std::isdigit(static_cast<unsigned char>(text[begin])) != 0;
}

/// Calls `member(struct_name, i)` for every line i at the member depth
/// of an option struct in the src/ header `path`: a `struct *Options` /
/// `*Config` (nested `struct Options` included) or a struct named in
/// `held`.
template <typename Member>
void ForEachOptionMember(const std::string& path,
                         const std::vector<std::string>& masked,
                         const std::set<std::string>& held, Member member) {
  const bool in_src = path.rfind("src/", 0) == 0 || PathContains(path, "/src/");
  const bool header =
      path.size() > 2 && path.compare(path.size() - 2, 2, ".h") == 0;
  if (!in_src || !header) return;

  struct OpenStruct {
    std::string name;
    int depth = 0;  // Brace depth of the struct's members.
  };
  std::vector<OpenStruct> open;
  std::string pending;  // An option struct whose `{` is still to come.
  int depth = 0;
  std::smatch m;
  for (size_t i = 0; i < masked.size(); ++i) {
    const std::string& line = masked[i];
    if (!open.empty() && depth == open.back().depth) {
      member(open.back().name, i);
    }
    if (std::regex_search(line, m, StructHeadRe())) {
      const std::string name = m[1].str();
      const bool option = name.ends_with("Options") ||
                          name.ends_with("Config") || held.count(name) > 0;
      if (option) pending = name;
    }
    for (const char c : line) {
      if (c == '{') {
        ++depth;
        if (!pending.empty()) {
          open.push_back({pending, depth});
          pending.clear();
        }
      } else if (c == '}') {
        if (!open.empty() && open.back().depth == depth) open.pop_back();
        --depth;
      }
    }
  }
}

}  // namespace

std::string MaskCommentsAndStrings(const std::string& in) {
  std::string out = in;
  enum class State { kCode, kLine, kBlock, kString, kChar, kRaw };
  State state = State::kCode;
  for (size_t i = 0; i < in.size(); ++i) {
    const char c = in[i];
    const char next = i + 1 < in.size() ? in[i + 1] : '\0';
    switch (state) {
      case State::kCode:
        if (c == '/' && next == '/') {
          state = State::kLine;
          out[i] = ' ';
        } else if (c == '/' && next == '*') {
          state = State::kBlock;
          out[i] = ' ';
        } else if (c == 'R' && next == '"' && i + 2 < in.size() &&
                   in[i + 2] == '(') {
          state = State::kRaw;
        } else if (c == '"') {
          state = State::kString;
        } else if (c == '\'' && !InNumber(in, i)) {
          state = State::kChar;
        }
        break;
      case State::kLine:
        if (c == '\n') {
          state = State::kCode;
        } else {
          out[i] = ' ';
        }
        break;
      case State::kBlock:
        if (c == '*' && next == '/') {
          out[i] = ' ';
          out[i + 1] = ' ';
          ++i;
          state = State::kCode;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
      case State::kString:
        if (c == '\\') {
          out[i] = ' ';
          if (next != '\0' && next != '\n') {
            out[i + 1] = ' ';
            ++i;
          }
        } else if (c == '"') {
          state = State::kCode;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
      case State::kChar:
        if (c == '\\') {
          out[i] = ' ';
          if (next != '\0' && next != '\n') {
            out[i + 1] = ' ';
            ++i;
          }
        } else if (c == '\'') {
          state = State::kCode;
        } else {
          out[i] = ' ';
        }
        break;
      case State::kRaw:
        if (c == ')' && next == '"') {
          ++i;
          state = State::kCode;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
    }
  }
  return out;
}

bool IsSuppressed(const std::string& raw_line, const std::string& rule) {
  const auto pos = raw_line.find("NOLINT");
  if (pos == std::string::npos) return false;
  const auto paren = pos + 6;
  if (paren >= raw_line.size() || raw_line[paren] != '(') {
    return true;  // Bare NOLINT.
  }
  const auto close = raw_line.find(')', paren);
  const std::string list = raw_line.substr(
      paren + 1,
      close == std::string::npos ? std::string::npos : close - paren - 1);
  return list.find(rule) != std::string::npos;
}

void Linter::AddFile(const std::string& path, const std::string& content,
                     bool callers_only) {
  FileEntry entry;
  entry.path = path;
  entry.callers_only = callers_only;
  entry.raw = SplitLines(content);
  entry.masked = SplitLines(MaskCommentsAndStrings(content));
  CollectDeclarations(entry);
  ScanFunctions(&entry);
  files_.push_back(std::move(entry));
}

void Linter::ScanFunctions(FileEntry* file) {
  // 'n' namespace, 't' class body, 'c' code (function bodies,
  // initializers, enum bodies), 'm' a member's brace initializer inside
  // a constructor's initializer list.
  struct Scope {
    char kind = 'n';
    std::string class_name;
  };
  std::vector<Scope> stack;
  std::string stmt;
  std::vector<int> stmt_lines;  // Line of each character of `stmt`.
  int paren = 0;
  int body_owner = -1;          // Index into functions while in a body.
  size_t body_depth = 0;        // Stack size just inside that body.

  const auto clear = [&] {
    stmt.clear();
    stmt_lines.clear();
    paren = 0;
  };
  const auto class_name = [&]() -> std::string {
    return stack.empty() ? "" : stack.back().class_name;
  };
  // Parses `stmt` as a function declaration or definition header.
  const auto parse = [&]() -> bool {
    const size_t offset = DeclStart(stmt);
    const std::string text = stmt.substr(offset);
    const size_t open = ParamListOpen(text);
    if (open == std::string::npos) return false;
    size_t name_end = open;
    while (name_end > 0 && std::isspace(static_cast<unsigned char>(
                               text[name_end - 1])) != 0) {
      --name_end;
    }
    size_t name_begin = name_end;
    while (name_begin > 0 && IsWordChar(text[name_begin - 1])) --name_begin;
    if (name_begin == name_end) return false;
    Function fn;
    fn.name = text.substr(name_begin, name_end - name_begin);
    if (std::isdigit(static_cast<unsigned char>(fn.name[0])) != 0 ||
        IsDeclKeyword(fn.name) || fn.name == "operator" ||
        fn.name == "alignas" || fn.name == "decltype" ||
        fn.name == "static_assert" || fn.name == "noexcept") {
      return false;
    }
    std::string pre = TrimSpace(text.substr(0, name_begin));
    if (!pre.empty() && pre.back() == '~') return false;
    std::string qualifier;
    while (pre.size() >= 2 && pre.compare(pre.size() - 2, 2, "::") == 0) {
      fn.qualified = true;
      pre = TrimSpace(pre.substr(0, pre.size() - 2));
      if (!pre.empty() && pre.back() == '>') {
        int angle = 0;
        size_t i = pre.size();
        while (i-- > 0) {
          if (pre[i] == '>') ++angle;
          if (pre[i] == '<' && --angle == 0) break;
        }
        pre = TrimSpace(pre.substr(0, i == std::string::npos ? 0 : i));
      }
      size_t q = pre.size();
      while (q > 0 && IsWordChar(pre[q - 1])) --q;
      if (qualifier.empty()) qualifier = pre.substr(q);
      pre = TrimSpace(pre.substr(0, q));
    }
    std::string type;
    for (size_t i = 0; i < pre.size();) {
      const char c = pre[i];
      if (!IsWordChar(c)) {
        if (std::string(" \t\n:<>*&,").find(c) == std::string::npos) {
          return false;
        }
        type += c;
        ++i;
        continue;
      }
      size_t end = i;
      while (end < pre.size() && IsWordChar(pre[end])) ++end;
      const std::string word = pre.substr(i, end - i);
      i = end;
      if (word == "friend" || word == "operator" || IsDeclKeyword(word)) {
        return false;
      }
      if (word == "static" || word == "virtual" || word == "inline" ||
          word == "constexpr" || word == "consteval" || word == "explicit" ||
          word == "extern") {
        continue;
      }
      type += word;
    }
    fn.return_type = TrimSpace(type);
    if (fn.return_type.empty()) {
      fn.constructor = fn.qualified ? qualifier == fn.name
                                    : fn.name == class_name();
      if (!fn.constructor) return false;
    }
    const size_t close = MatchingParen(text, open);
    const std::string after =
        close == std::string::npos ? "" : TrimSpace(text.substr(close + 1));
    fn.const_member = StartsWithWord(after, 0, "const");
    static const std::regex defaulted_re(R"(=\s*(default|delete)\b)");
    fn.defaulted = std::regex_search(after, defaulted_re);
    fn.line = stmt_lines[offset + name_begin];
    file->functions.push_back(std::move(fn));
    return true;
  };

  bool in_preprocessor = false;
  for (size_t i = 0; i < file->masked.size(); ++i) {
    const std::string& line = file->masked[i];
    const std::string trimmed = Trim(line);
    const bool continues = !trimmed.empty() && trimmed.back() == '\\';
    if (in_preprocessor || (!trimmed.empty() && trimmed[0] == '#')) {
      in_preprocessor = continues;
      continue;
    }
    for (size_t j = 0; j < line.size(); ++j) {
      const char c = line[j];
      const char kind = stack.empty() ? 'n' : stack.back().kind;
      if (kind == 'c' || kind == 'm') {
        if (c == '{') {
          stack.push_back({'c', ""});
        } else if (c == '}') {
          stack.pop_back();
          if (kind == 'm') {
            stmt += "{}";
            stmt_lines.insert(stmt_lines.end(), 2, static_cast<int>(i));
          }
          if (body_owner >= 0 && stack.size() < body_depth) {
            body_owner = -1;
            continue;
          }
        }
        if (body_owner >= 0) file->functions[body_owner].body += c;
        continue;
      }
      if (paren > 0 || (c != '{' && c != '}' && c != ';')) {
        if (c == '(') ++paren;
        if (c == ')' && paren > 0) --paren;
        if (c == ':' && paren == 0 && (j + 1 >= line.size() ||
                                       line[j + 1] != ':')) {
          const std::string label = TrimSpace(stmt);
          if (label == "public" || label == "private" ||
              label == "protected") {
            clear();
            continue;
          }
        }
        stmt += c;
        stmt_lines.push_back(static_cast<int>(i));
        continue;
      }
      if (c == '}') {
        clear();
        if (!stack.empty()) stack.pop_back();
        continue;
      }
      const std::string text = stmt.substr(DeclStart(stmt));
      const std::string tail = TrimSpace(text);
      std::string name;
      if (IsClassHead(text, &name)) {
        const auto at = stmt.find(name, DeclStart(stmt));
        if (!name.empty()) {
          file->classes.emplace_back(
              name, stmt_lines[at == std::string::npos ? 0 : at]);
        }
        clear();
        if (c == '{') stack.push_back({'t', name});
        continue;
      }
      if (c == ';') {
        parse();
        clear();
        continue;
      }
      // An opening brace at namespace or class scope.
      if (StartsWithWord(text, 0, "namespace")) {
        stack.push_back({'n', ""});
        clear();
      } else if (InInitializerList(text) && !tail.empty() &&
                 (IsWordChar(tail.back()) || tail.back() == '>')) {
        stack.push_back({'m', ""});
      } else if (parse()) {
        clear();
        body_owner = static_cast<int>(file->functions.size()) - 1;
        stack.push_back({'c', ""});
        body_depth = stack.size();
      } else {
        clear();
        stack.push_back({'c', ""});
      }
    }
    if (!stmt.empty()) {
      stmt += '\n';
      stmt_lines.push_back(static_cast<int>(i));
    }
    if (body_owner >= 0) file->functions[body_owner].body += '\n';
  }
}

void Linter::NoteSuppressionUsed(const std::string& path, int line) {
  suppressions_used_.insert({path, line});
}

void Linter::CollectDeclarations(const FileEntry& file) {
  std::smatch m;
  for (const std::string& line : file.masked) {
    std::string rest = line;
    while (std::regex_search(rest, m, EnumDeclRe())) {
      enum_names_.push_back(m[1].str());
      rest = m.suffix();
    }
    if (std::regex_search(line, m, StatusDeclRe())) {
      status_names_.push_back(m[2].str());
      continue;
    }
    if (std::regex_search(line, m, OtherDeclRe())) {
      const std::string type = m[1].str();
      const std::string name = m[2].str();
      if (IsDeclKeyword(type) || IsDeclKeyword(name)) continue;
      if (type == "Status" || type.rfind("Result", 0) == 0) continue;
      other_names_.push_back(name);
    }
  }
}

std::vector<Finding> Linter::Run() {
  std::sort(status_names_.begin(), status_names_.end());
  status_names_.erase(
      std::unique(status_names_.begin(), status_names_.end()),
      status_names_.end());
  std::sort(other_names_.begin(), other_names_.end());
  std::sort(enum_names_.begin(), enum_names_.end());
  enum_names_.erase(std::unique(enum_names_.begin(), enum_names_.end()),
                    enum_names_.end());

  assigned_in_.clear();
  for (const FileEntry& file : files_) {
    if (IsTestFile(file.path)) continue;
    for (const std::string& name : AssignedMemberNames(file.masked)) {
      assigned_in_[name].insert(file.path);
    }
  }

  // The structs an option struct holds by value (YcsbConfig's
  // OperationMix): their fields are knobs too.
  held_by_options_.clear();
  for (const FileEntry& file : files_) {
    ForEachOptionMember(
        file.path, file.masked, {}, [&](const std::string&, size_t i) {
          std::smatch m;
          if (!std::regex_search(file.masked[i], m, ValueMemberRe())) return;
          const std::string type = m[1].str();
          held_by_options_.insert(type.substr(type.rfind(':') + 1));
        });
  }

  implementations_.clear();
  for (const FileEntry& file : files_) {
    std::string text;
    for (const std::string& line : file.masked) {
      text += line;
      text += '\n';
    }
    for (std::sregex_iterator it(text.begin(), text.end(), DerivedClassRe()),
         end;
         it != end; ++it) {
      if ((*it)[1].matched) continue;  // enum class E : uint8_t {
      for (const std::string& base : BaseNames((*it)[3].str())) {
        implementations_[base].insert(file.path + ":" + (*it)[2].str());
      }
    }
  }

  std::vector<Finding> findings;
  for (const FileEntry& file : files_) {
    if (file.callers_only) continue;
    LintFile(file, &findings);
    LintFlow(file, &findings);
    LintUnsetOptions(file, &findings);
    LintSingleImpl(file, &findings);
    // Status's own factories return the Ok they define.
    if (!PathContains(file.path, "src/common/status")) {
      LintAlwaysOk(file, &findings);
    }
  }
  LintTestOnly(&findings);
  // After every suppression has been exercised (or not): stale-marker
  // detection.
  for (const FileEntry& file : files_) {
    if (!file.callers_only) LintUnusedNolint(file, &findings);
  }
  std::sort(findings.begin(), findings.end(),
            [](const Finding& a, const Finding& b) {
              if (a.path != b.path) return a.path < b.path;
              if (a.line != b.line) return a.line < b.line;
              return a.rule < b.rule;
            });
  return findings;
}

void Linter::Emit(const FileEntry& file, int line_index, const char* rule,
                  std::string message, std::vector<Finding>* out) {
  if (IsSuppressed(file.raw[line_index], rule)) {
    suppressions_used_.insert({file.path, line_index + 1});
    return;
  }
  Finding f;
  f.path = file.path;
  f.line = line_index + 1;
  f.rule = rule;
  f.message = std::move(message);
  out->push_back(std::move(f));
}

void Linter::LintFile(const FileEntry& file, std::vector<Finding>* out) {
  const bool in_random_module = PathContains(file.path, "src/common/random");
  const bool in_obs = PathContains(file.path, "src/obs");
  const bool in_byte_layer = PathContains(file.path, "src/codec") ||
                             PathContains(file.path, "src/net") ||
                             PathContains(file.path, "src/common");
  const bool in_src =
      file.path.rfind("src/", 0) == 0 || PathContains(file.path, "/src/");

  // Names of std::unordered_* members/locals declared in this file, for
  // the src/obs iteration rule.
  std::vector<std::string> unordered_names;
  if (in_obs) {
    std::smatch m;
    for (const std::string& line : file.masked) {
      std::string rest = line;
      while (std::regex_search(rest, m, UnorderedDeclRe())) {
        unordered_names.push_back(m[2].str());
        rest = m.suffix();
      }
    }
  }

  std::smatch m;
  for (size_t i = 0; i < file.masked.size(); ++i) {
    const std::string& line = file.masked[i];
    if (line.empty()) continue;

    if (std::regex_search(line, WallclockRe())) {
      Emit(file, static_cast<int>(i), "slacker-wallclock",
           "wall-clock read; sim code must take time from the "
           "sim::Simulator clock",
           out);
    }

    if (!in_random_module && std::regex_search(line, RawRandRe())) {
      Emit(file, static_cast<int>(i), "slacker-raw-rand",
           "unseeded randomness; draw from an explicitly seeded "
           "slacker::Rng (src/common/random.h) instead",
           out);
    }

    if (!in_byte_layer && std::regex_search(line, WireDecodeRe())) {
      Emit(file, static_cast<int>(i), "slacker-wire-decode",
           "raw byte reinterpretation outside the frame layer; decode "
           "wire data through src/codec / src/net (CRC-checked) "
           "instead",
           out);
    }

    if (in_src && std::regex_search(line, OwnerFlagRe())) {
      Emit(file, static_cast<int>(i), "slacker-owner-flag",
           "shared_ptr<bool> liveness flag; guard continuations with a "
           "sim::Lifetime member (src/sim/lifetime.h) instead",
           out);
    }

    if (line.find("EXPECT_") == std::string::npos &&
        line.find("ASSERT_") == std::string::npos &&
        std::regex_search(line, FloatEqRe())) {
      Emit(file, static_cast<int>(i), "slacker-float-eq",
           "exact floating-point comparison against a literal; use a "
           "tolerance or NOLINT a deliberate sweep-point check",
           out);
    }

    if (in_obs) {
      for (const std::string& name : unordered_names) {
        const std::regex iter_re(
            "for\\s*\\([^;:]*:\\s*" + name + "\\s*\\)|" + name +
            "\\s*\\.\\s*begin\\s*\\(");
        if (std::regex_search(line, iter_re)) {
          Emit(file, static_cast<int>(i), "slacker-unordered-iter",
               "iteration over std::unordered container '" + name +
                   "' in the byte-stable exporter layer; iterate a "
                   "deterministically ordered structure instead",
               out);
        }
      }
    }

    if (std::regex_match(line, m, StatementCallRe())) {
      const std::string name = m[2].str();
      if (std::binary_search(status_names_.begin(), status_names_.end(),
                             name) &&
          !std::binary_search(other_names_.begin(), other_names_.end(),
                              name)) {
        // Skip continuation lines: if the previous non-blank masked
        // line does not end a statement/block, this "call" is the tail
        // of a larger expression.
        bool continuation = false;
        for (size_t j = i; j-- > 0;) {
          const std::string& prev = file.masked[j];
          const auto last = prev.find_last_not_of(" \t");
          if (last == std::string::npos) continue;  // Blank line.
          const char end = prev[last];
          continuation = end != ';' && end != '{' && end != '}' &&
                         end != ')' && end != ':';
          break;
        }
        if (!continuation) {
          Emit(file, static_cast<int>(i), "slacker-dropped-status",
               "result of Status/Result-returning call '" + name +
                   "' is dropped; handle it, or cast to (void) with a "
                   "comment explaining why ignoring is safe",
               out);
        }
      }
    }
  }
}

void Linter::LintUnsetOptions(const FileEntry& file,
                              std::vector<Finding>* out) {
  ForEachOptionMember(
      file.path, file.masked, held_by_options_,
      [&](const std::string& struct_name, size_t i) {
        std::smatch m;
        if (!std::regex_search(file.masked[i], m, ScalarMemberRe())) return;
        const std::string name = m[1].str();
        const auto it = assigned_in_.find(name);
        const bool assigned_elsewhere =
            it != assigned_in_.end() &&
            (it->second.size() > 1 || it->second.count(file.path) == 0);
        if (!assigned_elsewhere) {
          Emit(file, static_cast<int>(i), "slacker-unset-option",
               "'" + struct_name + "::" + name +
                   "' is assigned by no scanned non-test file but its "
                   "header, so only its default ever runs; make it a "
                   "named constant where it is read, or give it a caller",
               out);
        }
      });
}

void Linter::LintSingleImpl(const FileEntry& file,
                            std::vector<Finding>* out) {
  const bool in_src =
      file.path.rfind("src/", 0) == 0 || PathContains(file.path, "/src/");
  if (!in_src) return;

  struct OpenClass {
    std::string name;
    int line = 0;   // 0-based header line.
    int depth = 0;  // Brace depth of the class's members.
    bool reported = false;
  };
  std::vector<OpenClass> open;
  OpenClass pending;
  int depth = 0;
  std::smatch m;
  for (size_t i = 0; i < file.masked.size(); ++i) {
    const std::string& line = file.masked[i];
    if (!open.empty() && !open.back().reported &&
        depth == open.back().depth &&
        std::regex_search(line, PureVirtualRe())) {
      OpenClass& abstract = open.back();
      abstract.reported = true;
      const auto it = implementations_.find(abstract.name);
      const size_t count =
          it == implementations_.end() ? 0 : it->second.size();
      if (count < 2) {
        Emit(file, abstract.line, "slacker-single-impl",
             "abstract class '" + abstract.name + "' has " +
                 std::to_string(count) +
                 " implementation(s) in the scanned tree, fewer than two; "
                 "an interface with one implementation is a stand-in for "
                 "that class: call it directly",
             out);
      }
    }
    if (std::regex_search(line, m, ClassHeadRe()) && !m[1].matched) {
      pending = {m[2].str(), static_cast<int>(i), 0, false};
    }
    for (const char c : line) {
      if (c == '{') {
        ++depth;
        if (!pending.name.empty()) {
          pending.depth = depth;
          open.push_back(pending);
          pending = OpenClass{};
        }
      } else if (c == '}') {
        if (!open.empty() && open.back().depth == depth) open.pop_back();
        --depth;
      }
    }
  }
}

void Linter::LintTestOnly(std::vector<Finding>* out) {
  const auto in_src_header = [](const FileEntry& file) {
    const std::string& path = file.path;
    return !file.callers_only &&
           (path.rfind("src/", 0) == 0 || PathContains(path, "/src/")) &&
           path.size() > 2 && path.compare(path.size() - 2, 2, ".h") == 0;
  };
  const auto is_target = [](const Function& fn) {
    return !fn.qualified && !fn.defaulted;
  };
  std::set<std::string> names;
  std::set<std::string> classes;
  for (const FileEntry& file : files_) {
    if (!in_src_header(file)) continue;
    for (const Function& fn : file.functions) {
      if (is_target(fn)) (fn.constructor ? classes : names).insert(fn.name);
    }
  }

  struct Refs {
    bool shipped = false;
    bool test = false;
  };
  std::map<std::string, Refs> calls;     // `name(`, `.name`, `::name`...
  std::map<std::string, Refs> mentions;  // A class name not before `::`.
  for (const FileEntry& file : files_) {
    const bool test = IsTestFile(file.path);
    std::map<int, std::set<std::string>> own;
    for (const Function& fn : file.functions) own[fn.line].insert(fn.name);
    for (const auto& [name, line] : file.classes) own[line].insert(name);
    for (size_t i = 0; i < file.masked.size(); ++i) {
      const std::string& line = file.masked[i];
      const auto own_line = own.find(static_cast<int>(i));
      for (size_t b = 0; b < line.size();) {
        if (!IsWordChar(line[b]) || (b > 0 && IsWordChar(line[b - 1]))) {
          ++b;
          continue;
        }
        size_t e = b;
        while (e < line.size() && IsWordChar(line[e])) ++e;
        const std::string word = line.substr(b, e - b);
        const bool name = names.count(word) != 0;
        const bool cls = classes.count(word) != 0;
        if ((name || cls) &&
            (own_line == own.end() || own_line->second.count(word) == 0)) {
          const char next = e < line.size() ? line[e] : '\0';
          const bool call =
              next == '(' || next == '<' || next == '{' ||
              (b >= 1 && (line[b - 1] == '.' || line[b - 1] == '&')) ||
              (b >= 2 && (line.compare(b - 2, 2, "->") == 0 ||
                          line.compare(b - 2, 2, "::") == 0));
          if (name && call) {
            (test ? calls[word].test : calls[word].shipped) = true;
          }
          if (cls && line.compare(e, 2, "::") != 0) {
            (test ? mentions[word].test : mentions[word].shipped) = true;
          }
        }
        b = e;
      }
    }
  }

  static const std::regex classed_re(
      R"(NOLINT\([^)]*slacker-test-only[^)]*\)\s*:\s*(seam|reference)\b)");
  for (const FileEntry& file : files_) {
    if (!in_src_header(file)) continue;
    for (const Function& fn : file.functions) {
      if (!is_target(fn)) continue;
      const Refs refs = (fn.constructor ? mentions : calls)[fn.name];
      if (refs.shipped || (refs.test && fn.const_member)) continue;
      const std::string what =
          fn.constructor ? "constructor of '" + fn.name + "'"
                         : "'" + fn.name + "'";
      const std::string& raw = file.raw[fn.line];
      if (IsSuppressed(raw, "slacker-test-only") &&
          !std::regex_search(raw, classed_re)) {
        suppressions_used_.insert({file.path, fn.line + 1});
        Finding f;
        f.path = file.path;
        f.line = fn.line + 1;
        f.rule = "slacker-test-only";
        f.message = "a NOLINT(slacker-test-only) marker must name its "
                    "class: `: seam` (a fault-injection hook) or "
                    "`: reference` (a reference implementation)";
        out->push_back(std::move(f));
        continue;
      }
      Emit(file, fn.line, "slacker-test-only",
           refs.test ? what + " is reached only from tests; delete it and "
                              "test the shipped path, or give it a "
                              "shipped caller"
                     : what + " has no caller in the scanned tree; "
                              "delete it",
           out);
    }
  }
}

void Linter::LintAlwaysOk(const FileEntry& file, std::vector<Finding>* out) {
  static const std::regex ok_re(
      R"(^(?:(?:slacker::)?Status(?:::Ok\(\)|\(\)|\{\})|\{\})$)");
  static const std::regex move_re(R"(^std::move\((\w+)\)$)");
  for (const Function& fn : file.functions) {
    if (!IsStatusType(fn.return_type)) continue;
    const std::string& body = fn.body;
    if (body.find("SLACKER_RETURN_IF_ERROR") != std::string::npos ||
        body.find("SLACKER_ASSIGN_OR_RETURN") != std::string::npos) {
      continue;
    }
    const bool result = fn.return_type.find("Result") != std::string::npos;
    // A Result's return is Ok unless it names a Status, calls a
    // Status/Result function, or returns a local that may hold one.
    const auto ok = [&](std::string expr) {
      expr.erase(std::remove_if(expr.begin(), expr.end(),
                                [](char c) {
                                  return std::isspace(
                                             static_cast<unsigned char>(c)) !=
                                         0;
                                }),
                 expr.end());
      if (std::regex_match(expr, ok_re)) return true;
      if (!result || expr.find("Status") != std::string::npos ||
          expr.find("status") != std::string::npos) {
        return false;
      }
      for (size_t b = 0; b < expr.size();) {
        size_t e = b;
        while (e < expr.size() && IsWordChar(expr[e])) ++e;
        if (e > b && e < expr.size() && expr[e] == '(' &&
            std::binary_search(status_names_.begin(), status_names_.end(),
                               expr.substr(b, e - b))) {
          return false;
        }
        b = e + 1;
      }
      std::smatch m;
      std::string local = expr;
      if (std::regex_match(expr, m, move_re)) local = m[1].str();
      if (std::all_of(local.begin(), local.end(), IsWordChar)) {
        const std::regex holds_status(
            R"(\b(?:Status|Result\s*<[^;]*>|auto)\s*[&]?\s+)" + local +
            R"(\b)");
        if (std::regex_search(body, holds_status)) return false;
      }
      return true;
    };
    bool any = false;
    bool all_ok = true;
    for (size_t pos = 0;
         all_ok && (pos = body.find("return", pos)) != std::string::npos;
         pos += 6) {
      if ((pos > 0 && IsWordChar(body[pos - 1])) ||
          (pos + 6 < body.size() && IsWordChar(body[pos + 6]))) {
        continue;
      }
      int depth = 0;
      size_t end = pos + 6;
      for (; end < body.size(); ++end) {
        const char c = body[end];
        if (c == '(' || c == '{' || c == '[') ++depth;
        if (c == ')' || c == '}' || c == ']') --depth;
        if (c == ';' && depth <= 0) break;
      }
      any = true;
      all_ok = ok(body.substr(pos + 6, end - pos - 6));
    }
    if (any && all_ok) {
      Emit(file, fn.line, "slacker-always-ok",
           "'" + fn.name +
               "' returns a Status/Result but every return is Ok and "
               "nothing in it can fail; return the value (or void)",
           out);
    }
  }
}

void Linter::LintFlow(const FileEntry& file, std::vector<Finding>* out) {
  struct Local {
    std::string name;
    int line = 0;  // 0-based decl line.
    bool used = false;
  };
  struct Scope {
    char kind = 'c';  // 'c' code, 't' type, 'n' namespace, 's' switch,
                      // 'i' initializer list.
    std::vector<Local> locals;
    std::string switch_enum;  // 's' only: project enum in a case label.
    int default_line = -1;    // 's' only: 0-based `default:` line.
  };
  std::vector<Scope> stack;
  std::string stmt;
  int stmt_line = -1;

  const auto top_kind = [&]() -> char {
    return stack.empty() ? 'n' : stack.back().kind;
  };

  // Any tracked local mentioned in `text` (other than `skip`) is used.
  const auto mark_uses = [&](const std::string& text,
                             const std::string& skip) {
    for (Scope& scope : stack) {
      for (Local& local : scope.locals) {
        if (local.used || local.name == skip) continue;
        if (ContainsWord(text, local.name)) local.used = true;
      }
    }
  };

  const auto find_local = [&](const std::string& name) -> Local* {
    for (auto scope = stack.rbegin(); scope != stack.rend(); ++scope) {
      for (Local& local : scope->locals) {
        if (local.name == name) return &local;
      }
    }
    return nullptr;
  };

  // Processes the accumulated statement text when it is terminated by
  // `;` (complete statement) or consumed by `{` (block header).
  const auto flush_stmt = [&](char delimiter) {
    const std::string text = Trim(stmt);
    stmt.clear();
    const int line = stmt_line;
    stmt_line = -1;
    if (text.empty() || line < 0) return;

    const char kind = top_kind();
    std::smatch m;
    if (kind == 'c' || kind == 's') {
      if (delimiter == ';' && std::regex_search(text, m, StatusLocalRe())) {
        // New tracked local; its initializer may use other locals.
        mark_uses(text, m[1].str());
        stack.back().locals.push_back({m[1].str(), line, false});
        return;
      }
      if (std::regex_match(text, m, ReassignRe()) &&
          find_local(m[1].str()) != nullptr) {
        // Plain overwrite: reads nothing from the LHS. The RHS still
        // counts as a use of anything it mentions (including the LHS
        // local itself, e.g. `s = Wrap(s)`).
        mark_uses(m[2].str(), "");
        return;
      }
      mark_uses(text, "");
      if (kind == 's') {
        Scope& sw = stack.back();
        if (std::regex_search(text, m, std::regex(R"((^|[^\w])case\s)"))) {
          std::string rest = text;
          while (std::regex_search(rest, m, std::regex(R"((\w+)\s*::)"))) {
            if (std::binary_search(enum_names_.begin(), enum_names_.end(),
                                   m[1].str())) {
              sw.switch_enum = m[1].str();
              break;
            }
            rest = m.suffix();
          }
        }
        if (std::regex_search(text, std::regex(R"((^|[^\w])default\s*:)"))) {
          sw.default_line = line;
        }
      }
    } else {
      // Type/namespace/initializer scope: nothing tracked, but a
      // statement can still mention a local (default member init never
      // can, yet lambdas inside initializers can).
      mark_uses(text, "");
    }
  };

  const auto classify_open = [&](const std::string& header) -> char {
    const std::string text = Trim(header);
    if (text.empty()) return top_kind() == 'i' ? 'i' : 'c';
    if (std::regex_search(
            text, std::regex(R"((^|[\s;{}])(class|struct|union|enum)\b)")) &&
        text.find('(') == std::string::npos) {
      return 't';
    }
    if (std::regex_search(text, std::regex(R"((^|[\s;{}])namespace\b)"))) {
      return 'n';
    }
    if (std::regex_search(text, std::regex(R"((^|[\s;{}])switch\s*\()"))) {
      return 's';
    }
    const char last = text[text.size() - 1];
    if (last == '=' || last == ',' || last == '(') return 'i';
    return 'c';
  };

  const auto close_scope = [&]() {
    if (stack.empty()) return;
    const Scope scope = stack.back();
    stack.pop_back();
    for (const Local& local : scope.locals) {
      if (local.used) continue;
      Emit(file, local.line, "slacker-dropped-status",
           "'" + local.name +
               "' holds a Status/Result that is never branched on, "
               "returned, or passed on before scope exit; handle it or "
               "annotate the deliberate drop",
           out);
    }
    if (scope.kind == 's' && !scope.switch_enum.empty() &&
        scope.default_line >= 0) {
      Emit(file, scope.default_line, "slacker-default-switch",
           "default: arm in a switch over project enum '" +
               scope.switch_enum +
               "' silently swallows new enumerators; enumerate the "
               "remaining cases (-Wswitch then flags additions) or "
               "NOLINT with a reason",
           out);
    }
  };

  bool in_preprocessor = false;
  for (size_t i = 0; i < file.masked.size(); ++i) {
    const std::string& line = file.masked[i];
    // Preprocessor lines (and their backslash continuations) follow
    // different brace rules — skip them entirely.
    const std::string trimmed = Trim(line);
    const bool continues = !trimmed.empty() && trimmed.back() == '\\';
    if (in_preprocessor) {
      in_preprocessor = continues;
      continue;
    }
    if (!trimmed.empty() && trimmed[0] == '#') {
      in_preprocessor = continues;
      continue;
    }

    for (const char c : line) {
      if (c == '{') {
        const char kind = classify_open(stmt);
        flush_stmt('{');
        stack.push_back(Scope{kind, {}, "", -1});
      } else if (c == '}') {
        flush_stmt('}');
        close_scope();
      } else if (c == ';') {
        flush_stmt(';');
      } else {
        if (stmt_line < 0 && !std::isspace(static_cast<unsigned char>(c))) {
          stmt_line = static_cast<int>(i);
        }
        stmt += c;
      }
    }
    stmt += ' ';  // Line break separates tokens.
  }
  // Unbalanced braces at EOF: close what remains so decls still report.
  flush_stmt(';');
  while (!stack.empty()) close_scope();
}

void Linter::LintUnusedNolint(const FileEntry& file,
                              std::vector<Finding>* out) const {
  std::smatch m;
  for (size_t i = 0; i < file.raw.size(); ++i) {
    const std::string& raw = file.raw[i];
    if (raw.find("NOLINT") == std::string::npos) continue;
    if (!std::regex_search(raw, m, NolintMarkerRe())) continue;

    std::string label = "NOLINT";
    if (m[1].matched) {
      // Listed rules: only markers claiming at least one slacker-*
      // rule are ours to police (clang-tidy names are someone else's).
      const std::string list = m[2].str();
      bool any_slacker = false;
      bool keep = false;
      std::string::size_type start = 0;
      while (start <= list.size()) {
        const auto comma = list.find(',', start);
        const std::string entry = Trim(
            comma == std::string::npos ? list.substr(start)
                                       : list.substr(start, comma - start));
        if (entry.rfind("slacker-", 0) == 0) any_slacker = true;
        if (entry == "slacker-unused-nolint") keep = true;
        if (comma == std::string::npos) break;
        start = comma + 1;
      }
      if (!any_slacker || keep) continue;
      label = "NOLINT(" + list + ")";
    }
    if (suppressions_used_.count({file.path, static_cast<int>(i) + 1}) !=
        0) {
      continue;
    }
    // Deliberately not routed through Emit(): a bare NOLINT would
    // suppress its own staleness finding.
    Finding f;
    f.path = file.path;
    f.line = static_cast<int>(i) + 1;
    f.rule = "slacker-unused-nolint";
    f.message = label +
                " suppressed nothing in this run; delete the stale "
                "marker (clang-tidy suppressions must name their check)";
    out->push_back(std::move(f));
  }
}

int AddPath(Linter* linter, const std::string& path, LayerAnalyzer* also,
            bool callers_only) {
  namespace fs = std::filesystem;
  std::error_code ec;
  const fs::file_status st = fs::status(path, ec);
  if (ec || st.type() == fs::file_type::not_found) return -1;

  auto add_one = [&](const fs::path& p) {
    const std::string ext = p.extension().string();
    if (ext != ".h" && ext != ".cc" && ext != ".cpp") return 0;
    std::ifstream in(p, std::ios::binary);
    if (!in) return 0;
    std::ostringstream buf;
    buf << in.rdbuf();
    linter->AddFile(p.generic_string(), buf.str(), callers_only);
    if (also != nullptr) also->AddFile(p.generic_string(), buf.str());
    return 1;
  };

  if (fs::is_regular_file(st)) return add_one(path);

  int added = 0;
  std::vector<fs::path> entries;
  for (fs::recursive_directory_iterator it(path, ec), end;
       it != end && !ec; it.increment(ec)) {
    if (it->is_directory()) {
      const std::string name = it->path().filename().string();
      if (name == "testdata" || name.rfind("build", 0) == 0 ||
          (!name.empty() && name[0] == '.')) {
        it.disable_recursion_pending();
      }
      continue;
    }
    if (it->is_regular_file()) entries.push_back(it->path());
  }
  // Deterministic scan order regardless of directory enumeration order.
  std::sort(entries.begin(), entries.end());
  for (const fs::path& p : entries) added += add_one(p);
  return added;
}

std::string FindingsToJson(const std::vector<Finding>& findings) {
  std::ostringstream out;
  out << "[";
  for (size_t i = 0; i < findings.size(); ++i) {
    const Finding& f = findings[i];
    if (i != 0) out << ",";
    out << "\n  {\"path\": \"" << JsonEscape(f.path)
        << "\", \"line\": " << f.line << ", \"rule\": \""
        << JsonEscape(f.rule) << "\", \"message\": \""
        << JsonEscape(f.message) << "\"}";
  }
  if (!findings.empty()) out << "\n";
  out << "]\n";
  return out.str();
}

std::string FindingsToText(const std::vector<Finding>& findings) {
  std::ostringstream out;
  for (const Finding& f : findings) {
    out << f.path << ":" << f.line << ": [" << f.rule << "] " << f.message
        << "\n";
  }
  return out.str();
}

}  // namespace slacker::lint
