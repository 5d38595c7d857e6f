#include "analyze/parse.h"

#include <set>

namespace memfs::analyze {

namespace {

// Names that can never be a function being defined (control statements and
// expression keywords that are also followed by `(...) {`).
const std::set<std::string>& NonFunctionNames() {
  static const std::set<std::string> kNames = {
      "if",     "for",    "while",      "switch",       "catch",
      "return", "sizeof", "alignof",    "decltype",     "noexcept",
      "assert", "static_assert",        "co_await",     "co_return",
      "co_yield", "new",  "delete",     "throw",        "case"};
  return kNames;
}

bool IsQualifier(const std::string& text) {
  return text == "const" || text == "noexcept" || text == "override" ||
         text == "final" || text == "mutable";
}

// Scans backward from `from` (inclusive) for a ':' at bracket depth zero —
// the start of a constructor initializer list. Stops (and fails) at any
// statement boundary. Returns the index of the ':' or npos.
std::size_t FindInitListColon(const std::vector<Token>& t, std::size_t from) {
  int depth = 0;
  for (std::size_t i = from + 1; i-- > 0;) {
    const std::string& text = t[i].text;
    if (text == ")" || text == "}" || text == "]") {
      ++depth;
      if (text == "}" && depth == 1 && i == from) continue;  // member init {}
      continue;
    }
    if (text == "(" || text == "{" || text == "[") {
      if (--depth < 0) return std::string::npos;  // left the enclosing scope
      continue;
    }
    if (depth > 0) continue;
    if (text == ":") return i;
    if (text == ";" || t[i].kind == Token::Kind::kPreprocessor) {
      return std::string::npos;
    }
  }
  return std::string::npos;
}

// Given the index of a '{' that is not inside a function, decides whether it
// opens a function body; fills `out` (name/display/line/name_token) and
// returns true when it does.
bool DetectFunction(const std::vector<Token>& t, std::size_t brace,
                    FunctionInfo& out) {
  // Step back over trailing qualifiers (`) const noexcept {`).
  std::size_t i = brace;
  while (i > 0) {
    --i;
    if (t[i].kind == Token::Kind::kPreprocessor) continue;
    if (IsQualifier(t[i].text)) continue;
    break;
  }
  if (i == 0 && t[i].text != ")") return false;

  // A constructor initializer list ends in `...) {` too; rewind to the ':'
  // and take the ')' just before it as the parameter list's close.
  if (t[i].text != ")") {
    const std::size_t colon = FindInitListColon(t, i);
    if (colon == std::string::npos || colon == 0) return false;
    i = colon - 1;
    while (i > 0 && t[i].kind == Token::Kind::kPreprocessor) --i;
    if (t[i].text != ")") return false;
  }

  std::size_t open = MatchBackward(t, i, "(", ")");
  if (open == std::string::npos || open == 0) return false;
  std::size_t name = open - 1;
  if (t[name].kind != Token::Kind::kIdent) return false;
  if (NonFunctionNames().count(t[name].text) > 0) return false;

  // `b_(y), a_(x) :` — the candidate is itself an initializer-list entry;
  // walk to the list's ':' and retry on the parameter list before it.
  if (name > 0 && (t[name - 1].text == "," || t[name - 1].text == ":")) {
    const std::size_t colon = FindInitListColon(t, name - 1);
    if (colon == std::string::npos || colon == 0) return false;
    std::size_t close = colon - 1;
    while (close > 0 && t[close].kind == Token::Kind::kPreprocessor) --close;
    if (t[close].text != ")") return false;
    open = MatchBackward(t, close, "(", ")");
    if (open == std::string::npos || open == 0) return false;
    name = open - 1;
    if (t[name].kind != Token::Kind::kIdent) return false;
    if (NonFunctionNames().count(t[name].text) > 0) return false;
  }
  if (name > 0 && t[name - 1].text == "operator") return false;

  out.name = t[name].text;
  out.display = out.name;
  out.line = t[name].line;
  out.name_token = name;
  // Out-of-line `Class::Method`.
  if (name >= 2 && t[name - 1].text == "::" &&
      t[name - 2].kind == Token::Kind::kIdent) {
    out.display = t[name - 2].text + "::" + out.name;
  }
  return true;
}

// Records every lambda body inside [begin, end): a '[' introducer (not a
// subscript, not an attribute) followed by an optional parameter list and an
// optional trailing return type, then '{'.
void FindLambdaBodies(const std::vector<Token>& t, std::size_t begin,
                      std::size_t end, FunctionInfo& fn) {
  for (std::size_t i = begin; i < end; ++i) {
    if (t[i].text != "[") continue;
    if (i + 1 < end && t[i + 1].text == "[") {  // [[attribute]]
      ++i;
      continue;
    }
    if (i > begin) {
      const std::string& prev = t[i - 1].text;
      const bool subscript = t[i - 1].kind == Token::Kind::kIdent ||
                             prev == ")" || prev == "]" ||
                             t[i - 1].kind == Token::Kind::kLiteral;
      if (subscript) continue;
    }
    // Skip the capture list and the optional parameter list.
    std::size_t j = MatchForward(t, i, "[", "]");
    if (j >= end) return;
    ++j;
    if (j < end && t[j].text == "(") {
      j = MatchForward(t, j, "(", ")");
      if (j >= end) return;
      ++j;
    }
    // Optional qualifiers and trailing return type.
    while (j < end && (IsQualifier(t[j].text) || t[j].text == "->" ||
                       t[j].text == "::" || t[j].text == "*" ||
                       t[j].text == "&" ||
                       t[j].kind == Token::Kind::kIdent)) {
      ++j;
    }
    if (j >= end || t[j].text != "{") continue;
    const std::size_t close = MatchForward(t, j, "{", "}");
    if (close >= end) return;
    fn.lambda_bodies.emplace_back(j, close);
    i = j;  // nested lambdas get their own (inner) entries
  }
}

}  // namespace

std::size_t MatchForward(const std::vector<Token>& t, std::size_t open,
                         const char* open_text, const char* close_text) {
  int depth = 0;
  for (std::size_t i = open; i < t.size(); ++i) {
    if (t[i].text == open_text) ++depth;
    if (t[i].text == close_text && --depth == 0) return i;
  }
  return std::string::npos;
}

std::size_t MatchBackward(const std::vector<Token>& t, std::size_t close,
                          const char* open_text, const char* close_text) {
  int depth = 0;
  for (std::size_t i = close + 1; i-- > 0;) {
    if (t[i].text == close_text) ++depth;
    if (t[i].text == open_text && --depth == 0) return i;
  }
  return std::string::npos;
}

bool InLambda(const FunctionInfo& fn, std::size_t i) {
  for (const auto& [begin, end] : fn.lambda_bodies) {
    if (i > begin && i < end) return true;
  }
  return false;
}

TranslationUnit ParseTu(std::string path, const std::string& contents) {
  TranslationUnit tu;
  tu.path = std::move(path);
  tu.lexed = Tokenize(contents);
  const std::vector<Token>& t = tu.lexed.tokens;

  // Class/struct scope names for display-name qualification, keyed by the
  // brace depth at which the block opened.
  struct ClassScope {
    std::string name;
    int depth;
  };
  std::vector<ClassScope> class_stack;

  int depth = 0;
  std::size_t skip_until = 0;  // inside a function body up to this index
  for (std::size_t i = 0; i < t.size(); ++i) {
    const std::string& text = t[i].text;
    if (text == "{") {
      ++depth;
      if (i >= skip_until) {
        FunctionInfo fn;
        if (DetectFunction(t, i, fn)) {
          const std::size_t close = MatchForward(t, i, "{", "}");
          if (close != std::string::npos) {
            fn.body_begin = i;
            fn.body_end = close;
            if (fn.display == fn.name && !class_stack.empty()) {
              fn.display = class_stack.back().name + "::" + fn.name;
            }
            for (std::size_t k = i; k < close; ++k) {
              const std::string& kt = t[k].text;
              if (kt == "co_await" || kt == "co_return" || kt == "co_yield") {
                fn.is_coroutine = true;
                break;
              }
            }
            FindLambdaBodies(t, i + 1, close, fn);
            tu.functions.push_back(std::move(fn));
            skip_until = close;
          }
        } else if (i >= 2 && t[i - 1].kind == Token::Kind::kIdent) {
          // `class Foo {` / `struct Foo {` (no base clause).
          if (t[i - 2].text == "class" || t[i - 2].text == "struct") {
            class_stack.push_back(ClassScope{t[i - 1].text, depth});
          }
        } else {
          // `class Foo : public Bar {` — rewind over the base clause.
          const std::size_t colon = i > 0 ? FindInitListColon(t, i - 1)
                                          : std::string::npos;
          if (colon != std::string::npos && colon >= 2 &&
              t[colon - 1].kind == Token::Kind::kIdent &&
              (t[colon - 2].text == "class" || t[colon - 2].text == "struct")) {
            class_stack.push_back(ClassScope{t[colon - 1].text, depth});
          }
        }
      }
      continue;
    }
    if (text == "}") {
      if (!class_stack.empty() && class_stack.back().depth == depth) {
        class_stack.pop_back();
      }
      --depth;
      continue;
    }
  }
  return tu;
}

}  // namespace memfs::analyze
