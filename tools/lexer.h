// C++ lexer and `lint: allow(...)` suppression scanner for the MemFS static
// analyzer (tools/analyze/, `memfs_analyze`).
//
// A comment containing `lint: allow(<rule>[, <rule>...])` suppresses
// findings of those rules on the comment's final line and on the following
// line. Every such site is kept as written, so the analyzer can audit
// suppressions that name no rule (`allow-unknown`) or silence nothing
// (`allow-unused`).
//
// The lexer handles comments, string/char literals, raw strings and
// preprocessor lines (with continuations); it does not preprocess, expand
// macros, or type-check.
#pragma once

#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

namespace memfs::analyze {

struct Token {
  enum class Kind { kIdent, kNumber, kLiteral, kPunct, kPreprocessor };
  Kind kind;
  std::string text;
  int line;
};

// line -> rule names suppressed on that line.
using SuppressionMap = std::unordered_map<int, std::set<std::string>>;

struct TokenizedFile {
  std::vector<Token> tokens;
  SuppressionMap suppressions;
  // Every `lint: allow(...)` site as written, one (line, rule) pair per rule
  // named — the raw material for the suppression audit.
  std::vector<std::pair<int, std::string>> suppression_sites;
  bool has_pragma_once = false;
};

bool IsIdentStart(char c);
bool IsIdentChar(char c);

// Lexes `text` into tokens, collecting suppression comments along the way.
TokenizedFile Tokenize(const std::string& text);

// True when `rule` is suppressed on `line`.
bool IsSuppressed(const SuppressionMap& suppressions, int line,
                  const std::string& rule);

}  // namespace memfs::analyze
