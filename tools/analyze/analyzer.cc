#include "analyze/analyzer.h"

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "analyze/parse.h"
#include "lexer.h"

namespace memfs::analyze {

namespace {

constexpr std::size_t kNpos = std::string::npos;
constexpr int kUnreachable = std::numeric_limits<int>::max();

// --- Rule table -----------------------------------------------------------

// Every rule the analyzer reports, by family (see analyzer.h). AddFinding
// accepts only these names, and the suppression audit flags any other.
const std::set<std::string>& RuleNames() {
  static const std::set<std::string> kRules = {
      "lock-order",
      "await-held-lock", "held-reacquire", "locked-return", "blocking-call",
      "acquire-release", "await-in-conditional",
      "unordered-sink", "pointer-order", "nondeterminism",
      "ignored-status", "status-flow",
      "using-namespace", "pragma-once",
      "allow-unknown", "allow-unused"};
  return kRules;
}

// --- Name sets ------------------------------------------------------------

// Member calls that move lock state. Acquire pairs with Release (Semaphore /
// BoundedPool), EnterWriter with ExitWriter and Lock with Unlock
// (HandoffGate). Lock/Unlock sections are exclusive: the holder shuts out
// every writer of the key.
bool IsAcquireName(const std::string& s) {
  return s == "Acquire" || s == "EnterWriter" || s == "Lock";
}
bool IsReleaseName(const std::string& s) {
  return s == "Release" || s == "ExitWriter" || s == "Unlock";
}

// Statement keywords that look like calls to the token scanner.
const std::set<std::string>& CallKeywords() {
  static const std::set<std::string> kSet = {
      "if",       "for",     "while",    "switch",        "catch",
      "return",   "co_return", "co_await", "co_yield",    "assert",
      "static_assert", "sizeof", "alignof", "decltype",   "defined",
      "throw",    "new",     "delete"};
  return kSet;
}

// Accessor-shaped chain components that never name the lock/container
// itself (`pools_.at(i).Acquire()` — the lock class is `pools_`, not `at`).
const std::set<std::string>& Accessors() {
  static const std::set<std::string> kSet = {
      "at", "get", "front", "back", "begin", "end", "cbegin", "cend",
      "value", "first", "second"};
  return kSet;
}

// Wall-clock blocking primitives that must never be reachable from a
// coroutine: a blocked coroutine stalls the whole single-threaded event
// loop, and none of these route through the simulated clock.
const std::set<std::string>& BlockingNames() {
  static const std::set<std::string> kSet = {
      "sleep",      "usleep",     "nanosleep", "sleep_for", "sleep_until",
      "join",       "wait",       "wait_for",  "wait_until", "lock",
      "try_lock_for"};
  return kSet;
}

// The project's own hash tables. Iterating one visits elements in hash
// order, as with a std::unordered_* container, so declarations of these
// types are tracked exactly like unordered type aliases.
const std::set<std::string>& HashOrderedTypes() {
  static const std::set<std::string> kTypes = {
      "ObjectTable",  // src/kvstore/kv_server.h: the kv object store
  };
  return kTypes;
}

// Order-sensitive sinks for the determinism dataflow rule: anything whose
// observable output depends on call order. Digest/byte streams (Append),
// trace emission, simulation event scheduling, RPC/op issue, and monitor
// probe registration. Commutative metric updates (counters, gauges,
// histogram records) are deliberately absent.
const std::set<std::string>& SinkNames() {
  static const std::set<std::string> kSet = {
      "Append",       "StartSpan", "StartSpanOn", "AddEvent", "EndSpan",
      "Annotate",     "Schedule",  "ScheduleAt",  "Resume",   "Set",
      "Get",          "Delete",    "MultiSet",    "MultiGet", "MultiDelete",
      "EnqueueMutation", "Send",   "AddGaugeProbe", "AddRateProbe"};
  return kSet;
}

const std::set<std::string>& SortNames() {
  static const std::set<std::string> kSet = {
      "sort", "stable_sort", "nth_element", "min_element", "max_element"};
  return kSet;
}

// Tokens whose presence in a statement means its result is used or that it
// is not a plain call: declarations, assignments, control flow, initializer
// lists and casts (the ignored-status rule skips such statements).
const std::set<std::string>& ResultUsers() {
  static const std::set<std::string> kSet = {
      "Status",     "Result",     "Future",   "VoidFuture", "void",
      "auto",       "virtual",    "using",    "template",   "typedef",
      "operator",   "return",     "co_return", "co_yield",  "if",
      "for",        "while",      "switch",   "case",       "goto",
      "new",        "delete",     "=",        "{",          "}",
      "?",          "static_cast", "const_cast", "reinterpret_cast",
      "dynamic_cast"};
  return kSet;
}

bool IsHeaderPath(const std::string& path) {
  return path.size() >= 2 && path.compare(path.size() - 2, 2, ".h") == 0;
}

bool IsSimPath(const std::string& path) {
  return path.find("src/sim/") != std::string::npos ||
         path.rfind("sim/", 0) == 0;
}

// --- Token helpers --------------------------------------------------------

// True when the `=` at `i` assigns (not part of ==, !=, <= or >=).
bool IsAssignment(const std::vector<Token>& t, std::size_t i) {
  if (t[i].text != "=" || (i + 1 < t.size() && t[i + 1].text == "=")) {
    return false;
  }
  if (i == 0) return true;
  const std::string& prev = t[i - 1].text;
  return prev != "=" && prev != "!" && prev != "<" && prev != ">";
}

// The identity-carrying component of a member chain, walking backward over
// `expr` in [begin, end): for `slot.workers->...` the tail is `workers`, for
// `pools_.at(node)....` it is `pools_` (accessors are skipped), for
// `membership_->gate()....` it is `gate`. `aliases` resolves local
// references (`auto& pool = flush_pools_->at(node);` maps pool ->
// flush_pools_).
std::string TailOfExpr(const std::vector<Token>& t, std::size_t begin,
                       std::size_t end,
                       const std::map<std::string, std::string>& aliases) {
  std::vector<std::string> comps;  // tail-first
  std::size_t i = end;
  while (i > begin) {
    --i;
    const std::string& text = t[i].text;
    if (text == ")" || text == "]") {
      const std::size_t open =
          MatchBackward(t, i, text == ")" ? "(" : "[", text.c_str());
      if (open == kNpos || open <= begin) break;
      i = open;  // next iteration looks at the token before the opener
      continue;
    }
    if (t[i].kind == Token::Kind::kIdent) {
      comps.push_back(text);
      if (i == begin) break;
      const std::string& sep = t[i - 1].text;
      if (sep == "." || sep == "->" || sep == "::") {
        --i;  // skip the separator; the loop steps to the next component
        continue;
      }
      break;
    }
    break;
  }
  std::string chosen;
  for (const std::string& comp : comps) {
    if (Accessors().count(comp) == 0) {
      chosen = comp;
      break;
    }
  }
  if (chosen.empty()) chosen = comps.empty() ? "<expr>" : comps.back();
  auto alias = aliases.find(chosen);
  if (alias != aliases.end() && alias->second != chosen) {
    return alias->second;
  }
  return chosen;
}

// The (min, max) entry count of the parenthesized list opened at `open`.
// For a call both are the argument count; for a declaration, parameters
// with a default value are optional and a `...` pack is unbounded.
std::pair<int, int> Arity(const std::vector<Token>& t, std::size_t open) {
  const std::size_t close = MatchForward(t, open, "(", ")");
  if (close == kNpos || close == open + 1 ||
      (close == open + 2 && t[open + 1].text == "void")) {
    return {0, 0};
  }
  int entries = 1;
  int defaulted = 0;
  bool has_default = false;
  bool variadic = false;
  int depth = 0;
  for (std::size_t i = open + 1; i < close; ++i) {
    const std::string& s = t[i].text;
    if (s == "(" || s == "[" || s == "{" || s == "<") {
      ++depth;
    } else if (s == ")" || s == "]" || s == "}" || s == ">") {
      if (depth > 0) --depth;  // a stray '>' is a comparison
    } else if (depth == 0 && s == ",") {
      ++entries;
      if (has_default) ++defaulted;
      has_default = false;
    } else if (depth == 0 && s == "=") {
      has_default = true;
    } else if (s == "." && i + 2 < close && t[i + 1].text == "." &&
               t[i + 2].text == ".") {
      variadic = true;
    }
  }
  if (has_default) ++defaulted;
  return {entries - defaulted,
          variadic ? std::numeric_limits<int>::max() : entries};
}

// --- Declaration table ----------------------------------------------------

// What a declared function hands back, as far as the status rules care.
enum class Returns {
  kStatus,  // Status, Result<T>, Future<Status>, Future<Result<T>>
  kFuture,  // a future without an error payload (VoidFuture, Future<Bytes>)
  kVoid,
};

// One declared overload: its return kind and the argument counts a call to
// it may pass.
struct Decl {
  Returns returns;
  int min_args = 0;
  int max_args = 0;
};

// --- Per-function facts ---------------------------------------------------

struct Site {
  std::string file;
  int line = 0;
  std::string fn;  // display name of the containing function
};

struct HeldLock {
  std::string lock;
  bool exclusive = false;
  int line = 0;  // acquisition line
};

struct AcquireEvent {
  std::string lock;
  int line = 0;
  std::vector<HeldLock> held;  // held set just before this acquisition
};

struct CallRec {
  std::string callee;
  int line = 0;
  bool in_lambda = false;
  std::vector<HeldLock> held;
};

struct FnFacts {
  const TranslationUnit* tu = nullptr;
  const FunctionInfo* fn = nullptr;
  std::map<std::string, std::string> aliases;
  std::vector<AcquireEvent> acquires;
  std::map<std::string, Site> own_acquires;  // lock -> first site
  std::map<std::string, Site> may_acquire;   // transitive (fixpoint)
  std::vector<CallRec> calls;
  // acquire-release facts: permit Acquire() lines and whether the function
  // (lambdas included) ever calls Release().
  std::vector<int> permit_acquires;
  bool releases_permit = false;
  // blocking-call facts.
  bool reaches_blocking = false;
  Site blocking_site;
  std::string blocking_name;
  bool blocking_is_direct = false;
  // unordered-sink facts: 0 = calls a sink directly, k = through k calls.
  int sink_depth = kUnreachable;
  std::string sink_name;
  Site sink_site;
};

// --- The analysis ---------------------------------------------------------

class Analysis {
 public:
  explicit Analysis(std::vector<TranslationUnit> tus) : tus_(std::move(tus)) {}

  std::vector<Finding> Run(Stats& stats);

 private:
  void CollectGlobalDecls();
  void CollectDecl(const std::vector<Token>& t, std::size_t i);
  bool Declares(const std::string& name, int args, Returns returns) const;
  void ScanFunction(const TranslationUnit& tu, const FunctionInfo& fn,
                    FnFacts& facts);
  void PropagateSummaries();
  void LockGraphRules();
  void BlockingRule();
  void AcquireReleaseRule(const FnFacts& facts);
  void LoopRules(const FnFacts& facts);
  void StatusFlowRule(const FnFacts& facts);
  void IgnoredStatusRule(const TranslationUnit& tu);
  void NondeterminismRule(const TranslationUnit& tu);
  void AwaitInConditionalRule(const TranslationUnit& tu);
  void HeaderRules(const TranslationUnit& tu);
  void SuppressionAudit();
  void AddFinding(const std::string& file, int line, std::string rule,
                  std::string message);

  const std::vector<FnFacts*>& Targets(const std::string& name) {
    static const std::vector<FnFacts*> kNone;
    auto it = symtab_.find(name);
    return it == symtab_.end() ? kNone : it->second;
  }

  // Call resolution used for summary propagation (locks, blocking, sinks).
  // Names with many same-named definitions (Get/Set/Add/...) would connect
  // unrelated subsystems and flood every rule with phantom paths, so
  // summaries only flow through callees that resolve nearly uniquely.
  const std::vector<FnFacts*>& ResolvedTargets(const std::string& name) {
    static const std::vector<FnFacts*> kNone;
    const std::vector<FnFacts*>& all = Targets(name);
    return all.size() <= 2 ? all : kNone;
  }

  std::vector<TranslationUnit> tus_;
  std::vector<FnFacts> fns_;
  std::map<std::string, std::vector<FnFacts*>> symtab_;
  std::map<std::string, const TokenizedFile*> suppressions_;  // by path
  // Global declaration knowledge.
  std::set<std::string> unordered_vars_;
  std::set<std::string> unordered_fns_;
  std::set<std::string> unordered_types_;
  // Pointer-container identity is tracked per TU (keyed by path): these
  // names are usually short locals (`all`, `group`) and a global namespace
  // would produce cross-file collisions.
  std::map<std::string, std::set<std::string>> ptr_elem_vars_;
  std::map<std::string, std::set<std::string>> ptr_keyed_vars_;
  std::map<std::string, std::vector<Decl>> decls_;  // by function name
  // Lock-order graph: (from, to) -> witness sites.
  struct Edge {
    Site holder;   // where `from` was acquired
    Site acquire;  // where `to` is acquired while `from` is held
    std::string via;  // callee name when the edge crosses a call, else empty
  };
  std::map<std::pair<std::string, std::string>, Edge> edges_;
  std::vector<Finding> findings_;
  int call_edges_ = 0;
  int call_sites_ = 0;
  int lock_sites_ = 0;
  int unordered_loops_ = 0;
};

void Analysis::AddFinding(const std::string& file, int line, std::string rule,
                          std::string message) {
  assert(RuleNames().count(rule) > 0);
  bool suppressed = false;
  auto it = suppressions_.find(file);
  if (it != suppressions_.end()) {
    suppressed = IsSuppressed(it->second->suppressions, line, rule);
  }
  findings_.push_back(
      Finding{file, line, std::move(rule), std::move(message), suppressed});
}

// Records the declaration whose return type starts at token `i`, if any:
// `Status F(`, `VoidFuture F(`, `void F(`, `Result<...> F(` or
// `Future<...> F(`.
void Analysis::CollectDecl(const std::vector<Token>& t, std::size_t i) {
  const std::string& type = t[i].text;
  Returns returns = Returns::kStatus;
  std::size_t name = i + 1;
  if (type == "VoidFuture") {
    returns = Returns::kFuture;
  } else if (type == "void") {
    returns = Returns::kVoid;
  } else if ((type == "Result" || type == "Future") && i + 1 < t.size() &&
             t[i + 1].text == "<") {
    bool carries_status = type == "Result";
    int depth = 0;
    for (name = i + 1; name < t.size(); ++name) {
      const std::string& s = t[name].text;
      if (s == "<") {
        ++depth;
      } else if (s == ">") {
        if (--depth == 0) break;
      } else if (s == "Status" || s == "Result") {
        carries_status = true;  // Future<Status>, Future<Result<T>>
      } else if (s == ";" || s == "{") {
        return;  // a comparison, not a template argument list
      }
    }
    ++name;
    returns = carries_status ? Returns::kStatus : Returns::kFuture;
  } else if (type != "Status") {
    return;
  }
  if (name + 1 >= t.size() || t[name].kind != Token::Kind::kIdent ||
      t[name + 1].text != "(") {
    return;
  }
  const auto [min_args, max_args] = Arity(t, name + 1);
  decls_[t[name].text].push_back(Decl{returns, min_args, max_args});
}

// True when an overload of `name` that accepts `args` arguments is declared
// to return `returns`.
bool Analysis::Declares(const std::string& name, int args,
                        Returns returns) const {
  auto it = decls_.find(name);
  if (it == decls_.end()) return false;
  return std::any_of(it->second.begin(), it->second.end(),
                     [&](const Decl& d) {
                       return d.returns == returns && d.min_args <= args &&
                              args <= d.max_args;
                     });
}

// Scans every TU's full token stream for container/alias/function
// declarations the rules need to resolve names globally.
void Analysis::CollectGlobalDecls() {
  auto declared_name = [](const std::vector<Token>& t, std::size_t after)
      -> std::pair<std::string, bool> {  // (name, is_function)
    std::size_t k = after;
    while (k < t.size() &&
           (t[k].text == "*" || t[k].text == "&" || t[k].text == "const")) {
      ++k;
    }
    if (k >= t.size() || t[k].kind != Token::Kind::kIdent) return {"", false};
    const bool is_fn = k + 1 < t.size() && t[k + 1].text == "(";
    return {t[k].text, is_fn};
  };

  const std::set<std::string>& hash_ordered = HashOrderedTypes();
  unordered_types_.insert(hash_ordered.begin(), hash_ordered.end());

  // Pass 1: literal std::unordered_* declarations, pointer containers,
  // unordered type aliases, function declarations.
  for (const TranslationUnit& tu : tus_) {
    const std::vector<Token>& t = tu.lexed.tokens;
    for (std::size_t i = 0; i < t.size(); ++i) {
      const std::string& text = t[i].text;
      if (t[i].kind == Token::Kind::kIdent &&
          (i == 0 || (t[i - 1].text != "." && t[i - 1].text != "->"))) {
        CollectDecl(t, i);
      }
      if ((text == "unordered_map" || text == "unordered_set" ||
           text == "unordered_multimap" || text == "unordered_multiset") &&
          i + 1 < t.size() && t[i + 1].text == "<") {
        const std::size_t close = MatchForward(t, i + 1, "<", ">");
        if (close == kNpos) continue;
        auto [name, is_fn] = declared_name(t, close + 1);
        if (name.empty()) continue;
        (is_fn ? unordered_fns_ : unordered_vars_).insert(name);
      } else if ((text == "vector" || text == "deque" || text == "array" ||
                  text == "span") &&
                 i + 1 < t.size() && t[i + 1].text == "<") {
        const std::size_t close = MatchForward(t, i + 1, "<", ">");
        if (close == kNpos) continue;
        bool has_ptr = false;
        for (std::size_t k = i + 2; k < close; ++k) {
          if (t[k].text == "*") has_ptr = true;
        }
        if (!has_ptr) continue;
        auto [name, is_fn] = declared_name(t, close + 1);
        if (!name.empty() && !is_fn) ptr_elem_vars_[tu.path].insert(name);
      } else if ((text == "map" || text == "set" || text == "multimap" ||
                  text == "multiset") &&
                 i + 1 < t.size() && t[i + 1].text == "<") {
        const std::size_t close = MatchForward(t, i + 1, "<", ">");
        if (close == kNpos) continue;
        // Pointer in the key position: up to the first depth-1 comma.
        int depth = 0;
        bool key_ptr = false;
        for (std::size_t k = i + 1; k < close; ++k) {
          if (t[k].text == "<") ++depth;
          if (t[k].text == ">") --depth;
          if (t[k].text == "," && depth == 1) break;
          if (t[k].text == "*" && depth == 1) key_ptr = true;
        }
        if (!key_ptr) continue;
        auto [name, is_fn] = declared_name(t, close + 1);
        if (!name.empty() && !is_fn) ptr_keyed_vars_[tu.path].insert(name);
      } else if (text == "using" && i + 3 < t.size() &&
                 t[i + 1].kind == Token::Kind::kIdent &&
                 t[i + 2].text == "=") {
        for (std::size_t k = i + 3; k < t.size() && t[k].text != ";"; ++k) {
          if (t[k].text == "unordered_map" || t[k].text == "unordered_set") {
            unordered_types_.insert(t[i + 1].text);
            break;
          }
        }
      }
    }
  }
  // Pass 2: declarations through unordered type aliases and the project's
  // hash-ordered types.
  for (const TranslationUnit& tu : tus_) {
    const std::vector<Token>& t = tu.lexed.tokens;
    for (std::size_t i = 0; i + 1 < t.size(); ++i) {
      if (t[i].kind != Token::Kind::kIdent ||
          unordered_types_.count(t[i].text) == 0) {
        continue;
      }
      auto [name, is_fn] = declared_name(t, i + 1);
      if (name.empty()) continue;
      (is_fn ? unordered_fns_ : unordered_vars_).insert(name);
    }
  }
}

void Analysis::ScanFunction(const TranslationUnit& tu, const FunctionInfo& fn,
                            FnFacts& facts) {
  const std::vector<Token>& t = tu.lexed.tokens;
  facts.tu = &tu;
  facts.fn = &fn;

  // Local reference aliases: `Type& name = expr;`.
  for (std::size_t i = fn.body_begin + 2; i < fn.body_end; ++i) {
    if (t[i].text != "=" || t[i - 1].kind != Token::Kind::kIdent ||
        t[i - 2].text != "&") {
      continue;
    }
    std::size_t semi = i + 1;
    while (semi < fn.body_end && t[semi].text != ";") ++semi;
    const std::string tail = TailOfExpr(t, i + 1, semi, {});
    if (!tail.empty() && tail != "<expr>") {
      facts.aliases.emplace(t[i - 1].text, tail);
    }
  }

  std::vector<HeldLock> held;
  std::set<std::string> await_flagged;
  std::set<std::string> reacquire_flagged;
  std::set<int> return_flagged;

  for (std::size_t i = fn.body_begin + 1; i < fn.body_end; ++i) {
    const Token& tok = t[i];
    const bool in_lambda = InLambda(fn, i);

    if (!in_lambda && tok.text == "co_await") {
      for (const HeldLock& h : held) {
        if (h.exclusive && await_flagged.insert(h.lock).second) {
          AddFinding(tu.path, tok.line, "await-held-lock",
                     "co_await while exclusive lock '" + h.lock +
                         "' (acquired line " + std::to_string(h.line) +
                         ") is held; awaited work can depend on the locked "
                         "key — release first or annotate with "
                         "// lint: allow(await-held-lock) <why>");
        }
      }
      continue;
    }
    if (!in_lambda && (tok.text == "return" || tok.text == "co_return")) {
      if (!held.empty() && return_flagged.insert(tok.line).second) {
        std::string held_list;
        for (const HeldLock& h : held) {
          if (!held_list.empty()) held_list += ", ";
          held_list += "'" + h.lock + "' (line " + std::to_string(h.line) +
                       ")";
        }
        AddFinding(tu.path, tok.line, "locked-return",
                   tok.text + " while still holding " + held_list +
                       "; release on every exit path or annotate with "
                       "// lint: allow(locked-return) <why>");
      }
      continue;
    }
    if (tok.kind != Token::Kind::kIdent || i + 1 >= fn.body_end ||
        t[i + 1].text != "(") {
      continue;
    }
    const bool member =
        i > 0 && (t[i - 1].text == "." || t[i - 1].text == "->");
    const std::string& name = tok.text;
    // `Type name(args)` is a variable declaration (e.g. `trace::ScopedSpan
    // wait(ctx, ...)`), not a call to `name`: skip when the preceding token
    // is a plain identifier (that is not a statement keyword) or a closing
    // template angle.
    if (!member && i > fn.body_begin + 1 &&
        ((t[i - 1].kind == Token::Kind::kIdent &&
          CallKeywords().count(t[i - 1].text) == 0) ||
         t[i - 1].text == ">")) {
      continue;
    }

    if (member && (IsAcquireName(name) || IsReleaseName(name))) {
      if (name == "Acquire") facts.permit_acquires.push_back(tok.line);
      if (name == "Release") facts.releases_permit = true;
      if (in_lambda) continue;  // deferred code: held state unknowable here
      std::string cls = TailOfExpr(t, fn.body_begin, i - 1, facts.aliases);
      if (name == "EnterWriter" || name == "ExitWriter") cls += "#writer";
      if (name == "Lock" || name == "Unlock") cls += "#lock";
      if (IsAcquireName(name)) {
        ++lock_sites_;
        const bool already =
            std::any_of(held.begin(), held.end(),
                        [&](const HeldLock& h) { return h.lock == cls; });
        if (already && reacquire_flagged.insert(cls).second) {
          AddFinding(tu.path, tok.line, "held-reacquire",
                     "'" + cls + "' is acquired again while already held by "
                     "this function; a second blocking acquisition of the "
                     "same lock class can self-deadlock — restructure or "
                     "annotate with // lint: allow(held-reacquire) <why>");
        }
        facts.acquires.push_back(AcquireEvent{cls, tok.line, held});
        facts.own_acquires.try_emplace(cls,
                                       Site{tu.path, tok.line, fn.display});
        held.push_back(HeldLock{cls, name == "Lock", tok.line});
      } else {
        for (std::size_t h = held.size(); h-- > 0;) {
          if (held[h].lock == cls) {
            held.erase(held.begin() + static_cast<std::ptrdiff_t>(h));
            break;
          }
        }
      }
      continue;
    }
    if (CallKeywords().count(name) > 0) continue;
    ++call_sites_;
    CallRec call;
    call.callee = name;
    call.line = tok.line;
    call.in_lambda = in_lambda;
    if (!in_lambda) call.held = held;
    facts.calls.push_back(std::move(call));
    if (BlockingNames().count(name) > 0 && !facts.reaches_blocking) {
      facts.reaches_blocking = true;
      facts.blocking_is_direct = true;
      facts.blocking_site = Site{tu.path, tok.line, fn.display};
      facts.blocking_name = name;
    }
    if (SinkNames().count(name) > 0 && facts.sink_depth > 0) {
      facts.sink_depth = 0;
      facts.sink_name = name;
      facts.sink_site = Site{tu.path, tok.line, fn.display};
    }
  }
}

// Fixpoint over the call graph: transitive may-acquire sets, blocking-call
// reachability, and sink depth. Deterministic: functions are processed in
// registration order until nothing changes.
void Analysis::PropagateSummaries() {
  for (FnFacts& f : fns_) f.may_acquire = f.own_acquires;
  bool changed = true;
  int rounds = 0;
  while (changed && ++rounds < 64) {
    changed = false;
    for (FnFacts& f : fns_) {
      for (const CallRec& call : f.calls) {
        for (FnFacts* g : ResolvedTargets(call.callee)) {
          if (g == &f) continue;
          for (const auto& [lock, site] : g->may_acquire) {
            if (f.may_acquire.emplace(lock, site).second) changed = true;
          }
          if (g->reaches_blocking && !f.reaches_blocking) {
            f.reaches_blocking = true;
            f.blocking_site = g->blocking_site;
            f.blocking_name = g->blocking_name;
            changed = true;
          }
          if (g->sink_depth != kUnreachable &&
              g->sink_depth + 1 < f.sink_depth) {
            f.sink_depth = g->sink_depth + 1;
            f.sink_name = g->sink_name;
            f.sink_site = g->sink_site;
            changed = true;
          }
        }
      }
    }
  }
}

void Analysis::LockGraphRules() {
  // Intra-function edges: lock B acquired while A held.
  for (const FnFacts& f : fns_) {
    for (const AcquireEvent& ev : f.acquires) {
      for (const HeldLock& h : ev.held) {
        if (h.lock == ev.lock) continue;
        edges_.emplace(
            std::make_pair(h.lock, ev.lock),
            Edge{Site{f.tu->path, h.line, f.fn->display},
                 Site{f.tu->path, ev.line, f.fn->display}, ""});
      }
    }
  }
  // Cross-function edges and cross-call re-acquisitions.
  for (const FnFacts& f : fns_) {
    std::set<std::string> cross_flagged;
    for (const CallRec& call : f.calls) {
      if (call.held.empty()) continue;
      for (FnFacts* g : ResolvedTargets(call.callee)) {
        if (g == &f) continue;
        for (const auto& [lock, site] : g->may_acquire) {
          for (const HeldLock& h : call.held) {
            if (h.lock == lock) {
              if (cross_flagged.insert(lock).second) {
                AddFinding(f.tu->path, call.line, "held-reacquire",
                           "'" + lock + "' (held since line " +
                               std::to_string(h.line) +
                               ") may be acquired again inside the call to '" +
                               call.callee + "' (acquisition at " + site.file +
                               ":" + std::to_string(site.line) + " in " +
                               site.fn + ")");
              }
              continue;
            }
            edges_.emplace(std::make_pair(h.lock, lock),
                           Edge{Site{f.tu->path, h.line, f.fn->display}, site,
                                call.callee});
          }
        }
      }
    }
  }

  // Cycle detection over the acquisition-order graph (Tarjan SCC).
  std::vector<std::string> nodes;
  std::map<std::string, std::vector<std::string>> adj;
  for (const auto& [key, edge] : edges_) {
    (void)edge;
    adj[key.first].push_back(key.second);
    nodes.push_back(key.first);
    nodes.push_back(key.second);
  }
  std::sort(nodes.begin(), nodes.end());
  nodes.erase(std::unique(nodes.begin(), nodes.end()), nodes.end());

  std::map<std::string, int> index, low;
  std::vector<std::string> stack;
  std::set<std::string> on_stack;
  std::vector<std::vector<std::string>> sccs;
  int next_index = 0;
  // Iterative Tarjan keyed by node name; adjacency lists are sorted for
  // deterministic SCC output.
  for (auto& [node, neighbors] : adj) {
    (void)node;
    std::sort(neighbors.begin(), neighbors.end());
  }
  std::function<void(const std::string&)> strongconnect =
      [&](const std::string& v) {
        index[v] = low[v] = next_index++;
        stack.push_back(v);
        on_stack.insert(v);
        auto it = adj.find(v);
        if (it != adj.end()) {
          for (const std::string& w : it->second) {
            if (index.find(w) == index.end()) {
              strongconnect(w);
              low[v] = std::min(low[v], low[w]);
            } else if (on_stack.count(w) > 0) {
              low[v] = std::min(low[v], index[w]);
            }
          }
        }
        if (low[v] == index[v]) {
          std::vector<std::string> scc;
          while (true) {
            const std::string w = stack.back();
            stack.pop_back();
            on_stack.erase(w);
            scc.push_back(w);
            if (w == v) break;
          }
          if (scc.size() >= 2) {
            std::sort(scc.begin(), scc.end());
            sccs.push_back(std::move(scc));
          }
        }
      };
  for (const std::string& node : nodes) {
    if (index.find(node) == index.end()) strongconnect(node);
  }
  std::sort(sccs.begin(), sccs.end());

  for (const std::vector<std::string>& scc : sccs) {
    const std::set<std::string> members(scc.begin(), scc.end());
    // Shortest cycle through the smallest member: BFS over SCC-internal
    // edges back to the start.
    const std::string& start = scc.front();
    std::map<std::string, std::string> parent;
    std::vector<std::string> queue = {start};
    std::string closer;  // node with an edge back to start
    for (std::size_t qi = 0; qi < queue.size() && closer.empty(); ++qi) {
      const std::string u = queue[qi];
      auto it = adj.find(u);
      if (it == adj.end()) continue;
      for (const std::string& w : it->second) {
        if (members.count(w) == 0) continue;
        if (w == start) {
          closer = u;
          break;
        }
        if (parent.emplace(w, u).second) queue.push_back(w);
      }
    }
    if (closer.empty()) continue;  // defensive: SCC>=2 always has a cycle
    std::vector<std::string> cycle = {start};
    for (std::string v = closer; v != start; v = parent.at(v)) {
      cycle.insert(cycle.begin() + 1, v);
    }
    cycle.push_back(start);

    std::ostringstream msg;
    msg << "potential deadlock: lock acquisition order cycle ";
    for (std::size_t i = 0; i < cycle.size(); ++i) {
      if (i > 0) msg << " -> ";
      msg << "'" << cycle[i] << "'";
    }
    const Edge* anchor = nullptr;
    for (std::size_t i = 0; i + 1 < cycle.size(); ++i) {
      const Edge& e = edges_.at({cycle[i], cycle[i + 1]});
      if (anchor == nullptr) anchor = &e;
      msg << "; '" << cycle[i + 1] << "' acquired at " << e.acquire.file
          << ":" << e.acquire.line << " (in " << e.acquire.fn << ")";
      if (!e.via.empty()) msg << " via call to '" << e.via << "'";
      msg << " while '" << cycle[i] << "' held (acquired at " << e.holder.file
          << ":" << e.holder.line << " in " << e.holder.fn << ")";
    }
    AddFinding(anchor->acquire.file, anchor->acquire.line, "lock-order",
               msg.str());
  }
}

void Analysis::BlockingRule() {
  for (const FnFacts& f : fns_) {
    if (!f.fn->is_coroutine) continue;
    if (f.blocking_is_direct) {
      AddFinding(f.tu->path, f.blocking_site.line, "blocking-call",
                 "coroutine '" + f.fn->display + "' calls blocking '" +
                     f.blocking_name +
                     "'; a blocked coroutine stalls the whole event loop — "
                     "use the simulated clock / sim primitives");
      continue;
    }
    if (!f.reaches_blocking) continue;
    // Anchor at the first call that leads to the blocking primitive.
    for (const CallRec& call : f.calls) {
      bool leads = false;
      for (FnFacts* g : ResolvedTargets(call.callee)) {
        if (g->reaches_blocking) {
          leads = true;
          break;
        }
      }
      if (!leads) continue;
      AddFinding(f.tu->path, call.line, "blocking-call",
                 "coroutine '" + f.fn->display + "' reaches blocking '" +
                     f.blocking_name + "' (" + f.blocking_site.file + ":" +
                     std::to_string(f.blocking_site.line) +
                     ") through the call to '" + call.callee +
                     "'; a blocked coroutine stalls the whole event loop");
      break;
    }
  }
}

void Analysis::AcquireReleaseRule(const FnFacts& facts) {
  if (facts.releases_permit) return;
  for (int line : facts.permit_acquires) {
    AddFinding(facts.tu->path, line, "acquire-release",
               "Acquire() with no Release() in the enclosing function; "
               "release the permit or annotate the cross-function protocol "
               "with // lint: allow(acquire-release) <why>");
  }
}

void Analysis::LoopRules(const FnFacts& facts) {
  const TranslationUnit& tu = *facts.tu;
  const FunctionInfo& fn = *facts.fn;
  const std::vector<Token>& t = tu.lexed.tokens;
  static const std::set<std::string> kEmpty;
  auto tu_set =
      [&](const std::map<std::string, std::set<std::string>>& by_path)
      -> const std::set<std::string>& {
    auto it = by_path.find(tu.path);
    return it == by_path.end() ? kEmpty : it->second;
  };
  const std::set<std::string>& ptr_elems = tu_set(ptr_elem_vars_);
  const std::set<std::string>& ptr_keyed = tu_set(ptr_keyed_vars_);

  for (std::size_t i = fn.body_begin + 1; i < fn.body_end; ++i) {
    const Token& tok = t[i];
    if (tok.kind != Token::Kind::kIdent) continue;

    // Default-comparator sort of a pointer container.
    if (SortNames().count(tok.text) > 0 && i + 1 < fn.body_end &&
        t[i + 1].text == "(") {
      const std::size_t close = MatchForward(t, i + 1, "(", ")");
      if (close == kNpos) continue;
      std::size_t first_comma = close;
      int commas = 0;
      int depth = 0;
      for (std::size_t k = i + 1; k < close; ++k) {
        if (t[k].text == "(" || t[k].text == "<" || t[k].text == "[" ||
            t[k].text == "{") {
          ++depth;
        } else if (t[k].text == ")" || t[k].text == ">" ||
                   t[k].text == "]" || t[k].text == "}") {
          --depth;
        } else if (t[k].text == "," && depth == 1) {
          ++commas;
          if (first_comma == close) first_comma = k;
        }
      }
      const std::string arg_tail =
          TailOfExpr(t, i + 2, first_comma, facts.aliases);
      const int default_comparator_max = tok.text == "nth_element" ? 2 : 1;
      if (ptr_elems.count(arg_tail) > 0 &&
          commas <= default_comparator_max) {
        AddFinding(tu.path, tok.line, "pointer-order",
                   "std::" + tok.text + " over pointer container '" +
                       arg_tail + "' with the default comparator orders by "
                       "address, which varies run to run; sort by a stable "
                       "key instead");
      }
      continue;
    }

    if (tok.text != "for" || i + 1 >= fn.body_end || t[i + 1].text != "(") {
      continue;
    }
    const std::size_t close = MatchForward(t, i + 1, "(", ")");
    if (close == kNpos) continue;
    // Range-for: ':' at parenthesis depth 1.
    std::size_t colon = kNpos;
    int depth = 0;
    for (std::size_t k = i + 1; k < close; ++k) {
      if (t[k].text == "(" || t[k].text == "[" || t[k].text == "{") ++depth;
      if (t[k].text == ")" || t[k].text == "]" || t[k].text == "}") --depth;
      if (t[k].text == ":" && depth == 1) {
        colon = k;
        break;
      }
    }
    if (colon == kNpos) continue;
    const std::string range_tail =
        TailOfExpr(t, colon + 1, close, facts.aliases);
    const bool unordered = unordered_vars_.count(range_tail) > 0 ||
                           unordered_fns_.count(range_tail) > 0;
    const bool is_ptr_keyed = ptr_keyed.count(range_tail) > 0;
    if (!unordered && !is_ptr_keyed) continue;

    // Loop body range.
    std::size_t body_begin = close + 1;
    std::size_t body_end;
    if (body_begin < fn.body_end && t[body_begin].text == "{") {
      body_end = MatchForward(t, body_begin, "{", "}");
      if (body_end == kNpos) continue;
    } else {
      body_end = body_begin;
      while (body_end < fn.body_end && t[body_end].text != ";") ++body_end;
    }

    if (is_ptr_keyed) {
      AddFinding(tu.path, tok.line, "pointer-order",
                 "iteration over pointer-keyed container '" + range_tail +
                     "' visits elements in address order, which varies run "
                     "to run; key by a stable identifier");
      i = body_end;
      continue;
    }

    ++unordered_loops_;
    // Does the loop body reach an order-sensitive sink?
    std::string sink;
    int sink_line = 0;
    for (std::size_t k = body_begin; k <= body_end && k < fn.body_end; ++k) {
      if (t[k].text == "co_await") {
        sink = "co_await (suspension order is part of the event stream)";
        sink_line = t[k].line;
        break;
      }
      if (t[k].kind != Token::Kind::kIdent || k + 1 >= fn.body_end ||
          t[k + 1].text != "(") {
        continue;
      }
      if (SinkNames().count(t[k].text) > 0) {
        sink = "'" + t[k].text + "'";
        sink_line = t[k].line;
        break;
      }
      if (CallKeywords().count(t[k].text) > 0) continue;
      for (FnFacts* g : ResolvedTargets(t[k].text)) {
        if (g->sink_depth <= 1) {
          sink = "'" + g->sink_name + "' (" + g->sink_site.file + ":" +
                 std::to_string(g->sink_site.line) + ") via call to '" +
                 t[k].text + "'";
          sink_line = t[k].line;
          break;
        }
      }
      if (!sink.empty()) break;
    }
    if (!sink.empty()) {
      AddFinding(tu.path, tok.line, "unordered-sink",
                 "iteration over unordered container '" + range_tail +
                     "' reaches order-sensitive sink " + sink + " (line " +
                     std::to_string(sink_line) +
                     "); iterate a sorted copy or annotate with "
                     "// lint: allow(unordered-sink) <why>");
    }
    i = body_end;
  }
}

void Analysis::StatusFlowRule(const FnFacts& facts) {
  const TranslationUnit& tu = *facts.tu;
  const FunctionInfo& fn = *facts.fn;
  const std::vector<Token>& t = tu.lexed.tokens;

  auto check_usage = [&](const std::string& name, std::size_t decl_end,
                         int line) {
    for (std::size_t k = decl_end; k < fn.body_end; ++k) {
      if (t[k].kind == Token::Kind::kIdent && t[k].text == name) return;
    }
    AddFinding(tu.path, line, "status-flow",
               "Status assigned to '" + name + "' is never checked in this "
               "function; test .ok() / propagate it, or annotate with "
               "// lint: allow(status-flow) <why>");
  };

  for (std::size_t i = fn.body_begin + 1; i + 2 < fn.body_end; ++i) {
    const Token& tok = t[i];
    if (tok.kind != Token::Kind::kIdent) continue;
    if (t[i + 1].kind != Token::Kind::kIdent || t[i + 2].text != "=") {
      continue;
    }
    const std::string& var = t[i + 1].text;
    std::size_t semi = i + 3;
    while (semi < fn.body_end && t[semi].text != ";") ++semi;
    if (tok.text == "Status") {
      check_usage(var, semi + 1, t[i + 1].line);
      i = semi;
    } else if (tok.text == "auto") {
      // `auto s = [co_await] <chain>.Fn(...)` with Fn Status-returning.
      std::size_t k = i + 3;
      if (k < semi && t[k].text == "co_await") ++k;
      std::size_t open = k;
      while (open < semi && t[open].text != "(") ++open;
      if (open >= semi || open == k ||
          t[open - 1].kind != Token::Kind::kIdent ||
          !Declares(t[open - 1].text, Arity(t, open).second,
                    Returns::kStatus)) {
        continue;
      }
      check_usage(var, semi + 1, t[i + 1].line);
      i = semi;
    }
  }
}

// A statement `[co_await] chain.Fn(args);` whose callee is declared to
// return a Status is a discarded error. An awaited call discards only what
// await_resume returns; a future dropped outright is a fire-and-forget
// without a join, so that is flagged for every future-returning callee.
void Analysis::IgnoredStatusRule(const TranslationUnit& tu) {
  const std::vector<Token>& t = tu.lexed.tokens;
  std::size_t start = 0;
  for (std::size_t end = 0; end < t.size(); ++end) {
    if (t[end].kind != Token::Kind::kPreprocessor && t[end].text != ";" &&
        t[end].text != "{" && t[end].text != "}") {
      continue;
    }
    const std::size_t first = start;
    start = end + 1;
    const auto begin = t.begin() + static_cast<std::ptrdiff_t>(first);
    const auto stop = t.begin() + static_cast<std::ptrdiff_t>(end);
    if (t[end].text != ";" ||
        std::any_of(begin, stop, [](const Token& tok) {
          return ResultUsers().count(tok.text) > 0;
        })) {
      continue;
    }
    // The callee follows a plain member/scope chain and its argument list
    // ends the statement.
    const auto paren = std::find_if(
        begin, stop, [](const Token& tok) { return tok.text == "("; });
    const std::size_t open = static_cast<std::size_t>(paren - t.begin());
    if (paren == stop || paren == begin ||
        (paren - 1)->kind != Token::Kind::kIdent ||
        MatchForward(t, open, "(", ")") != end - 1 ||
        !std::all_of(begin, paren - 1, [](const Token& tok) {
          return tok.kind == Token::Kind::kIdent || tok.text == "::" ||
                 tok.text == "." || tok.text == "->";
        })) {
      continue;
    }
    const std::string& callee = t[open - 1].text;
    const int args = Arity(t, open).second;
    const bool awaited = t[first].text == "co_await";
    if ((Declares(callee, args, Returns::kStatus) ||
         (!awaited && Declares(callee, args, Returns::kFuture))) &&
        !Declares(callee, args, Returns::kVoid)) {
      AddFinding(tu.path, t[first].line, "ignored-status",
                 "result of Status/Result-returning call '" + callee +
                     "' is ignored; handle it or annotate with "
                     "// lint: allow(ignored-status) <why>");
    }
  }
}

void Analysis::NondeterminismRule(const TranslationUnit& tu) {
  const std::vector<Token>& t = tu.lexed.tokens;
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (t[i].kind != Token::Kind::kIdent ||
        (i > 0 && (t[i - 1].text == "." || t[i - 1].text == "->"))) {
      continue;
    }
    const std::string& name = t[i].text;
    const bool called = i + 1 < t.size() && t[i + 1].text == "(";
    std::string message;
    if ((name == "rand" || name == "srand") && called) {
      message = "call to " + name + "(): all randomness must flow through "
                "the seeded common/rng.h Rng";
    } else if (name == "random_device") {
      message = "std::random_device is nondeterministic; seed an Rng "
                "explicitly";
    } else if ((name == "time" || name == "gettimeofday" ||
                name == "clock_gettime") &&
               called) {
      message = "wall-clock " + name + "(): use the simulated clock "
                "(Simulation::now())";
    } else if ((name == "system_clock" || name == "steady_clock" ||
                name == "high_resolution_clock") &&
               !IsSimPath(tu.path)) {
      message = "std::chrono::" + name + " outside sim/: wall clocks break "
                "bit-reproducibility; use Simulation::now()";
    } else {
      continue;
    }
    AddFinding(tu.path, t[i].line, "nondeterminism", std::move(message));
  }
}

// Each operand of a `?:` is scanned at the `?`'s own bracket depth: the
// condition back to the expression's start (`;`, `,`, a block's `}`, an
// unmatched open bracket, an assignment, `return`/`co_return`, or another
// `?`/`:`), the arms forward to its end. Nested brace blocks are skipped: an
// await inside a lambda body is not part of the conditional's evaluation.
void Analysis::AwaitInConditionalRule(const TranslationUnit& tu) {
  const std::vector<Token>& t = tu.lexed.tokens;
  std::set<std::size_t> reported;
  for (std::size_t q = 0; q < t.size(); ++q) {
    if (t[q].text != "?") continue;
    std::size_t await = kNpos;
    int depth = 0;
    for (std::size_t i = q; i-- > 0;) {
      const std::string& s = t[i].text;
      if (s == "}") {
        // At the `?`'s depth a block ends the previous statement.
        if (depth == 0) break;
        i = MatchBackward(t, i, "{", "}");
        if (i == kNpos) break;
      } else if (s == ")" || s == "]") {
        ++depth;
      } else if (s == "(" || s == "[" || s == "{") {
        if (depth-- == 0) break;
      } else if (s == "co_await") {
        await = i;
      } else if (depth == 0 &&
                 (s == ";" || s == "," || s == "?" || s == ":" ||
                  s == "return" || s == "co_return" || IsAssignment(t, i))) {
        break;
      }
    }
    int nested = 0;
    bool in_else = false;
    depth = 0;
    for (std::size_t i = q + 1; i < t.size() && await == kNpos; ++i) {
      const std::string& s = t[i].text;
      if (s == "{") {
        i = MatchForward(t, i, "{", "}");
        if (i == kNpos) break;
      } else if (s == "(" || s == "[") {
        ++depth;
      } else if (s == ")" || s == "]" || s == "}") {
        if (depth-- == 0) break;
      } else if (s == "co_await") {
        await = i;
      } else if (depth == 0 && s == "?") {
        ++nested;
      } else if (depth == 0 && s == ":") {
        if (nested > 0) {
          --nested;
        } else {
          in_else = true;
        }
      } else if (depth == 0 && (s == ";" || (in_else && s == ","))) {
        break;
      }
    }
    if (await == kNpos || !reported.insert(await).second) continue;
    AddFinding(tu.path, t[await].line, "await-in-conditional",
               "co_await inside an operand of ?:; GCC 12 double-frees the "
               "temporaries of `cond ? co_await a : f(co_await b)` — await "
               "into a local and choose the arm with if/else");
  }
}

void Analysis::HeaderRules(const TranslationUnit& tu) {
  if (!IsHeaderPath(tu.path)) return;
  if (!tu.lexed.has_pragma_once) {
    AddFinding(tu.path, 1, "pragma-once", "header is missing #pragma once");
  }
  const std::vector<Token>& t = tu.lexed.tokens;
  for (std::size_t i = 0; i + 1 < t.size(); ++i) {
    if (t[i].text == "using" && t[i + 1].text == "namespace") {
      AddFinding(tu.path, t[i].line, "using-namespace",
                 "'using namespace' in a header leaks into every includer");
    }
  }
}

// Runs after every other rule: a suppression must name a rule in the table
// (allow-unknown) and must have silenced a finding of that rule on its line
// or the next (allow-unused).
void Analysis::SuppressionAudit() {
  std::string valid;
  for (const std::string& rule : RuleNames()) {
    valid += (valid.empty() ? "" : ", ") + rule;
  }
  for (const TranslationUnit& tu : tus_) {
    for (const auto& [line, rule] : tu.lexed.suppression_sites) {
      if (RuleNames().count(rule) == 0) {
        AddFinding(tu.path, line, "allow-unknown",
                   "suppression names unknown rule '" + rule +
                       "'; no such check exists, so this comment silences "
                       "nothing (valid rules: " + valid + ")");
      }
    }
  }
  std::set<std::tuple<std::string, int, std::string>> consumed;
  for (const Finding& f : findings_) {
    if (f.suppressed) consumed.emplace(f.file, f.line, f.rule);
  }
  for (const TranslationUnit& tu : tus_) {
    for (const auto& [line, rule] : tu.lexed.suppression_sites) {
      // allow-unused markers cannot be judged before their own findings.
      if (RuleNames().count(rule) == 0 || rule == "allow-unused" ||
          consumed.count({tu.path, line, rule}) > 0 ||
          consumed.count({tu.path, line + 1, rule}) > 0) {
        continue;
      }
      AddFinding(tu.path, line, "allow-unused",
                 "suppression of '" + rule + "' silences no finding on this "
                 "line or the next; delete it, or keep its reason as a plain "
                 "comment");
    }
  }
}

std::vector<Finding> Analysis::Run(Stats& stats) {
  for (const TranslationUnit& tu : tus_) {
    suppressions_.emplace(tu.path, &tu.lexed);
  }
  CollectGlobalDecls();

  // Parse facts for every function, building the symbol table.
  std::size_t total_fns = 0;
  for (const TranslationUnit& tu : tus_) total_fns += tu.functions.size();
  fns_.reserve(total_fns);
  for (const TranslationUnit& tu : tus_) {
    for (const FunctionInfo& fn : tu.functions) {
      fns_.emplace_back();
      ScanFunction(tu, fn, fns_.back());
    }
  }
  for (FnFacts& f : fns_) {
    symtab_[f.fn->name].push_back(&f);
  }
  for (const FnFacts& f : fns_) {
    for (const CallRec& call : f.calls) {
      call_edges_ += static_cast<int>(Targets(call.callee).size());
    }
  }

  PropagateSummaries();
  LockGraphRules();
  BlockingRule();
  for (const FnFacts& f : fns_) {
    AcquireReleaseRule(f);
    LoopRules(f);
    StatusFlowRule(f);
  }
  for (const TranslationUnit& tu : tus_) {
    IgnoredStatusRule(tu);
    NondeterminismRule(tu);
    AwaitInConditionalRule(tu);
    HeaderRules(tu);
  }
  SuppressionAudit();

  std::sort(findings_.begin(), findings_.end(),
            [](const Finding& a, const Finding& b) {
              if (a.file != b.file) return a.file < b.file;
              if (a.line != b.line) return a.line < b.line;
              if (a.rule != b.rule) return a.rule < b.rule;
              return a.message < b.message;
            });

  stats.files = static_cast<int>(tus_.size());
  stats.functions = static_cast<int>(fns_.size());
  for (const FnFacts& f : fns_) {
    if (f.fn->is_coroutine) ++stats.coroutines;
  }
  stats.call_sites = call_sites_;
  stats.call_edges = call_edges_;
  stats.lock_sites = lock_sites_;
  std::set<std::string> classes;
  for (const FnFacts& f : fns_) {
    for (const auto& [lock, site] : f.own_acquires) {
      (void)site;
      classes.insert(lock);
    }
  }
  stats.lock_classes = static_cast<int>(classes.size());
  stats.unordered_loops = unordered_loops_;
  for (const Finding& f : findings_) {
    ++(f.suppressed ? stats.suppressed : stats.findings)[f.rule];
  }
  return std::move(findings_);
}

}  // namespace

// --- Public interface -----------------------------------------------------

std::string Format(const Finding& finding) {
  std::ostringstream out;
  out << finding.file << ":" << finding.line << ": " << finding.rule << ": "
      << finding.message;
  if (finding.suppressed) out << " [suppressed]";
  return out.str();
}

std::string FormatStats(const Stats& stats) {
  std::ostringstream out;
  out << "analyze: " << stats.files << " TU(s), " << stats.functions
      << " function(s) (" << stats.coroutines << " coroutines), "
      << stats.call_sites << " call site(s), " << stats.call_edges
      << " resolved call edge(s)\n";
  out << "locks: " << stats.lock_classes << " class(es), " << stats.lock_sites
      << " acquisition site(s); unordered-container loops: "
      << stats.unordered_loops << "\n";
  std::set<std::string> rules;
  for (const auto& [rule, n] : stats.findings) {
    (void)n;
    rules.insert(rule);
  }
  for (const auto& [rule, n] : stats.suppressed) {
    (void)n;
    rules.insert(rule);
  }
  for (const std::string& rule : rules) {
    const auto f = stats.findings.find(rule);
    const auto s = stats.suppressed.find(rule);
    out << "rule " << rule << ": "
        << (f == stats.findings.end() ? 0 : f->second) << " finding(s), "
        << (s == stats.suppressed.end() ? 0 : s->second) << " suppressed\n";
  }
  return out.str();
}

void Analyzer::AddSource(std::string path, std::string contents) {
  sources_.push_back(Source{std::move(path), std::move(contents)});
}

bool Analyzer::AddFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  AddSource(path, buffer.str());
  return true;
}

int Analyzer::AddTree(const std::string& root) {
  namespace fs = std::filesystem;
  std::vector<std::string> paths;
  std::error_code ec;
  for (fs::recursive_directory_iterator it(root, ec), end; it != end;
       it.increment(ec)) {
    if (ec) break;
    if (!it->is_regular_file(ec)) continue;
    const std::string p = it->path().string();
    if (p.size() >= 2 && (p.compare(p.size() - 2, 2, ".h") == 0 ||
                          (p.size() >= 3 &&
                           p.compare(p.size() - 3, 3, ".cc") == 0))) {
      paths.push_back(p);
    }
  }
  std::sort(paths.begin(), paths.end());
  int added = 0;
  for (const std::string& p : paths) {
    if (AddFile(p)) ++added;
  }
  return added;
}

std::vector<Finding> Analyzer::Run(bool include_suppressed) {
  std::vector<TranslationUnit> tus;
  tus.reserve(sources_.size());
  for (const Source& source : sources_) {
    tus.push_back(ParseTu(source.path, source.contents));
  }
  stats_ = Stats{};
  Analysis analysis(std::move(tus));
  std::vector<Finding> findings = analysis.Run(stats_);
  if (!include_suppressed) {
    findings.erase(std::remove_if(findings.begin(), findings.end(),
                                  [](const Finding& f) {
                                    return f.suppressed;
                                  }),
                   findings.end());
  }
  return findings;
}

}  // namespace memfs::analyze
