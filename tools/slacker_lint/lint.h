#ifndef SLACKER_TOOLS_SLACKER_LINT_LINT_H_
#define SLACKER_TOOLS_SLACKER_LINT_LINT_H_

#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

namespace slacker::lint {

/// One rule violation at a specific source line.
struct Finding {
  std::string path;
  int line = 0;          // 1-based.
  std::string rule;      // e.g. "slacker-wallclock".
  std::string message;   // Human-readable explanation.

  bool operator==(const Finding& other) const {
    return path == other.path && line == other.line && rule == other.rule;
  }
};

/// Rule identifiers (also the names accepted inside NOLINT(...)):
///
///   slacker-wallclock       wall-clock reads (system_clock, time(),
///                           gettimeofday, ...) — the simulator clock is
///                           the only time source allowed in sim code.
///   slacker-raw-rand        rand()/srand()/std::random_device outside
///                           src/common/random — all randomness must flow
///                           from an explicitly seeded slacker::Rng.
///   slacker-unordered-iter  iteration over a std::unordered_{map,set}
///                           member inside src/obs/ — the exporters are
///                           byte-stable, and unordered iteration order
///                           is ABI/hash-seed dependent.
///   slacker-float-eq        ==/!= against a floating-point literal —
///                           exact float equality is usually a latent
///                           tolerance bug (annotate deliberate
///                           sweep-point comparisons with NOLINT).
///   slacker-dropped-status  a Status/Result that is silently dropped:
///                           either a call to a Status/Result-returning
///                           function in statement position, or a local
///                           `Status s = ...` that is never branched-on,
///                           returned, moved, passed on, or
///                           (void)-annotated before its scope exits
///                           (intra-function flow tracking).
///   slacker-wire-decode     reinterpret_cast or raw memcpy outside
///                           src/codec, src/net and src/common — wire
///                           bytes must be decoded through the
///                           CRC-checked frame layer, not reinterpreted
///                           in place.
///   slacker-default-switch  a `default:` arm in a switch over a project
///                           enum — it would silently swallow a new
///                           enumerator; enumerate the cases instead so
///                           -Wswitch (CI: -Werror) flags additions.
///   slacker-owner-flag      a shared_ptr/weak_ptr<bool> liveness flag
///                           under src/ — continuations are guarded by
///                           a sim::Lifetime member instead.
///   slacker-unset-option    a scalar member with a default initializer
///                           in a `struct *Options` / `*Config` (or a
///                           nested `struct Options`), or in a struct
///                           that one of those holds by value (such as
///                           YcsbConfig's OperationMix), under src/ that
///                           no scanned file other than its own header
///                           assigns (`.x =` or `->x =`, whitespace and
///                           line breaks allowed around the name). A
///                           test file (under tests/ or named
///                           *_test.cc) is no caller: its assignments
///                           do not count. Only the default ever runs
///                           in shipped code, so the field is a
///                           constant posing as a knob: make it a named
///                           constant where it is read, or give it a
///                           caller.
///   slacker-single-impl     an abstract class (one with a pure virtual)
///                           declared under src/ that fewer than two
///                           classes in the scanned tree derive from
///                           (`: public X`, `, public ns::X`,
///                           `struct Y : ns::X`; tests count). An
///                           interface with one implementation is a
///                           stand-in for that class: its defaults and
///                           null branches serve fakes that do not
///                           exist. Call the class directly.
///   slacker-test-only       a function declared in a src/ header (free,
///                           static or member; a constructor goes by
///                           its class name) that no scanned file
///                           references ("no caller"), or that only
///                           test files reference and that is not a
///                           `const` member ("test-only"; a const
///                           member only tests reach is an observer
///                           and is not flagged). A name counts as
///                           referenced on a line that contains
///                           `name(`, `.name`, `->name`, `::name`,
///                           `&name`, `name<` or `name{`, other than
///                           the lines that declare or define a
///                           function of that name. A constructor
///                           counts as referenced wherever its class
///                           name appears other than as a `Name::`
///                           qualifier or on its class's own
///                           declaration lines, since
///                           `Foo x(...)` and `make_unique<Foo>(...)`
///                           name no `Foo(`. Matching is by name only,
///                           so the rule errs towards keeping code: a
///                           name that any shipped file uses counts as
///                           called. Delete the function, or mark a
///                           fault-injection hook or a reference
///                           implementation a test holds the shipped
///                           path against with
///                           `// NOLINT(slacker-test-only): seam — why`
///                           or `...: reference — why`; a marker that
///                           names neither class is itself a finding.
///   slacker-always-ok       a function returning Status or Result<T>
///                           whose every return is Ok (`Status::Ok()`,
///                           `Status()`, `{}`, or for a Result a value
///                           that is neither a Status nor a call that
///                           returns one) and whose body holds no
///                           SLACKER_RETURN_IF_ERROR or
///                           SLACKER_ASSIGN_OR_RETURN: it cannot fail,
///                           so its callers carry dead error handling.
///                           Return the value (or void) instead.
///   slacker-unused-nolint   a NOLINT marker that no longer suppresses
///                           any finding — stale markers hide future
///                           regressions and must be deleted.
///
/// The layering rules (slacker-layering, slacker-unknown-module,
/// slacker-include-cycle, slacker-module-cycle) are documented in
/// layering.h.
///
/// Suppression: a line containing `// NOLINT` suppresses every rule on
/// that line; `// NOLINT(rule-a, rule-b)` suppresses only those rules.
///
/// Callers-only files (AddFile's `callers_only`, the CLI's
/// `--callers <dir>`) are read for references, assignments and
/// implementations like any shipped file, but no rule reports on them.

/// Replaces the bodies of string literals, char literals and comments
/// with spaces (newlines preserved) so rule regexes never match inside
/// quoted text. Raw strings are handled with the default `R"("`
/// delimiter only — enough for this tree.
std::string MaskCommentsAndStrings(const std::string& in);

/// True if `raw_line` carries a NOLINT marker that suppresses `rule`:
/// a bare NOLINT suppresses everything; NOLINT(a, b) suppresses only
/// the named rules.
bool IsSuppressed(const std::string& raw_line, const std::string& rule);

/// Two-pass linter. AddFile() all translation units first (pass 1
/// builds the cross-file symbol tables: Status/Result-returning
/// function names for slacker-dropped-status, project enum names for
/// slacker-default-switch), then Run().
class Linter {
 public:
  /// Registers a file's content for linting. `path` is used verbatim in
  /// findings and for path-scoped rules (src/common/random exemption,
  /// src/obs/ scoping). A `callers_only` file is never reported on.
  void AddFile(const std::string& path, const std::string& content,
               bool callers_only = false);

  /// Records a suppression exercised by another pass at (path, line)
  /// — the layering analyzer shares the NOLINT escape hatch — so
  /// slacker-unused-nolint does not flag that marker. Call before
  /// Run().
  void NoteSuppressionUsed(const std::string& path, int line);

  /// Lints every added file; findings are ordered by (path, line).
  std::vector<Finding> Run();

 private:
  /// A function declared or defined at namespace or class scope.
  struct Function {
    std::string name;
    int line = 0;               // 0-based line of the name.
    bool qualified = false;     // `X::name(`: an out-of-class definition.
    bool constructor = false;
    bool const_member = false;
    bool defaulted = false;     // `= default` or `= delete`.
    std::string return_type;    // Specifiers and qualifiers stripped.
    std::string body;           // Masked body text; empty without one.
  };

  struct FileEntry {
    std::string path;
    bool callers_only = false;
    std::vector<std::string> raw;     // Original lines (NOLINT detection).
    std::vector<std::string> masked;  // Comments/strings blanked out.
    std::vector<Function> functions;
    // (class name, 0-based line) for every class head and forward
    // declaration: a constructor's own declaration lines.
    std::vector<std::pair<std::string, int>> classes;
  };

  /// Fills `functions` and `classes` from the masked lines.
  static void ScanFunctions(FileEntry* file);

  void CollectDeclarations(const FileEntry& file);
  void LintFile(const FileEntry& file, std::vector<Finding>* out);
  /// slacker-unset-option over one src/ header, against
  /// `assigned_in_`.
  void LintUnsetOptions(const FileEntry& file, std::vector<Finding>* out);
  /// slacker-single-impl over one src/ file, against
  /// `implementations_`.
  void LintSingleImpl(const FileEntry& file, std::vector<Finding>* out);
  /// slacker-test-only over every added file's src/ header functions,
  /// against the references of every added file.
  void LintTestOnly(std::vector<Finding>* out);
  /// slacker-always-ok over one file's Status/Result function bodies.
  void LintAlwaysOk(const FileEntry& file, std::vector<Finding>* out);
  /// Intra-function passes: dropped Status/Result locals and
  /// default-swallowed enum switches (scope-tracking scan).
  void LintFlow(const FileEntry& file, std::vector<Finding>* out);
  /// Flags NOLINT markers (bare, or naming only slacker-* rules) that
  /// suppressed nothing this run. Runs after every other pass.
  void LintUnusedNolint(const FileEntry& file,
                        std::vector<Finding>* out) const;
  /// Emits unless the raw line suppresses `rule`; a suppressed finding
  /// is recorded for the unused-NOLINT pass instead.
  void Emit(const FileEntry& file, int line_index, const char* rule,
            std::string message, std::vector<Finding>* out);

  std::vector<FileEntry> files_;
  // Function names declared (somewhere in the scanned set) with a
  // Status/Result return type...
  std::vector<std::string> status_names_;
  // ...and names also declared with a different return type; such
  // ambiguous names are dropped from the statement-position rule.
  std::vector<std::string> other_names_;
  // Named enums declared anywhere in the scanned set ("project enums").
  std::vector<std::string> enum_names_;
  // Member name -> non-test files that assign it (`.name =` /
  // `->name =`), built at the start of Run().
  std::map<std::string, std::set<std::string>> assigned_in_;
  // Unqualified type names of the members that a src/ option struct
  // holds by value, built at the start of Run().
  std::set<std::string> held_by_options_;
  // Base class name (unqualified) -> "path:derived" for every class
  // that derives from it, built at the start of Run().
  std::map<std::string, std::set<std::string>> implementations_;
  // (path, 1-based line) pairs where a NOLINT marker suppressed a
  // finding during this run (or an external pass, via
  // NoteSuppressionUsed).
  std::set<std::pair<std::string, int>> suppressions_used_;
};

/// Reads `path` (recursively, for directories) and adds every *.h,
/// *.cc, *.cpp file to `linter` (as callers only when `callers_only`)
/// and, when non-null, to `also` (the layering analyzer — any type with
/// a compatible AddFile). Returns the number of files added; -1 if
/// `path` does not exist.
class LayerAnalyzer;
int AddPath(Linter* linter, const std::string& path,
            LayerAnalyzer* also = nullptr, bool callers_only = false);

/// Findings as a deterministic machine-readable JSON array.
std::string FindingsToJson(const std::vector<Finding>& findings);

/// "path:line: [rule] message" — one per line.
std::string FindingsToText(const std::vector<Finding>& findings);

}  // namespace slacker::lint

#endif  // SLACKER_TOOLS_SLACKER_LINT_LINT_H_
