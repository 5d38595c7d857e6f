#include "lexer.h"

#include <algorithm>
#include <cctype>

namespace memfs::analyze {

bool IsIdentStart(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}
bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

namespace {

// A comment containing `lint: allow(rule[, rule])` suppresses those rules on
// the comment's final line and the line after it. Only identifier-shaped
// rule names count: prose that merely describes the syntax (ellipses,
// bracketed placeholders) is neither a suppression nor an audit finding.
void ParseSuppression(const std::string& comment, int end_line,
                      TokenizedFile& out) {
  std::size_t pos = comment.find("lint:");
  if (pos == std::string::npos) return;
  pos = comment.find("allow(", pos);
  if (pos == std::string::npos) return;
  pos += 6;
  const std::size_t close = comment.find(')', pos);
  if (close == std::string::npos) return;
  std::string rule;
  auto flush = [&] {
    if (!rule.empty()) {
      const bool ident =
          IsIdentStart(rule.front()) &&
          std::all_of(rule.begin(), rule.end(),
                      [](char c) { return IsIdentChar(c) || c == '-'; });
      if (ident) {
        out.suppressions[end_line].insert(rule);
        out.suppressions[end_line + 1].insert(rule);
        out.suppression_sites.emplace_back(end_line, rule);
      }
      rule.clear();
    }
  };
  for (std::size_t i = pos; i < close; ++i) {
    const char c = comment[i];
    if (c == ',' || std::isspace(static_cast<unsigned char>(c))) {
      flush();
    } else {
      rule += c;
    }
  }
  flush();
}

}  // namespace

TokenizedFile Tokenize(const std::string& text) {
  TokenizedFile out;
  int line = 1;
  bool at_line_start = true;  // only whitespace seen since the last newline
  std::size_t i = 0;
  const std::size_t n = text.size();

  auto emit = [&](Token::Kind kind, std::string token_text, int token_line) {
    out.tokens.push_back(Token{kind, std::move(token_text), token_line});
    at_line_start = false;
  };

  while (i < n) {
    const char c = text[i];
    if (c == '\n') {
      ++line;
      at_line_start = true;
      ++i;
      continue;
    }
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    // Line comment.
    if (c == '/' && i + 1 < n && text[i + 1] == '/') {
      std::size_t end = text.find('\n', i);
      if (end == std::string::npos) end = n;
      ParseSuppression(text.substr(i, end - i), line, out);
      i = end;
      continue;
    }
    // Block comment.
    if (c == '/' && i + 1 < n && text[i + 1] == '*') {
      std::size_t end = text.find("*/", i + 2);
      if (end == std::string::npos) end = n;
      const std::string comment = text.substr(i, end - i);
      for (char cc : comment) {
        if (cc == '\n') ++line;
      }
      ParseSuppression(comment, line, out);
      i = (end == n) ? n : end + 2;
      continue;
    }
    // Preprocessor directive: '#' first on its line; honors backslash
    // continuations.
    if (c == '#' && at_line_start) {
      const int start_line = line;
      std::size_t end = i;
      while (end < n) {
        std::size_t eol = text.find('\n', end);
        if (eol == std::string::npos) {
          end = n;
          break;
        }
        // Continuation line?
        std::size_t back = eol;
        while (back > end && std::isspace(static_cast<unsigned char>(
                                 text[back - 1])) &&
               text[back - 1] != '\n') {
          --back;
        }
        if (back > end && text[back - 1] == '\\') {
          ++line;
          end = eol + 1;
          continue;
        }
        end = eol;
        break;
      }
      std::string directive = text.substr(i, end - i);
      // Normalize "#  pragma   once" for the check.
      std::string squeezed;
      for (char dc : directive) {
        if (!std::isspace(static_cast<unsigned char>(dc))) squeezed += dc;
      }
      if (squeezed == "#pragmaonce") out.has_pragma_once = true;
      emit(Token::Kind::kPreprocessor, std::move(directive), start_line);
      at_line_start = true;
      i = end;
      continue;
    }
    // String literal (including raw strings reached via the ident path
    // below) and char literal.
    if (c == '"' || c == '\'') {
      const char quote = c;
      std::size_t j = i + 1;
      while (j < n && text[j] != quote) {
        if (text[j] == '\\' && j + 1 < n) ++j;
        if (text[j] == '\n') ++line;
        ++j;
      }
      emit(Token::Kind::kLiteral, text.substr(i, j - i + 1), line);
      i = (j < n) ? j + 1 : n;
      continue;
    }
    if (std::isdigit(static_cast<unsigned char>(c))) {
      std::size_t j = i;
      while (j < n && (std::isalnum(static_cast<unsigned char>(text[j])) ||
                       text[j] == '.' || text[j] == '\'')) {
        ++j;
      }
      emit(Token::Kind::kNumber, text.substr(i, j - i), line);
      i = j;
      continue;
    }
    if (IsIdentStart(c)) {
      std::size_t j = i;
      while (j < n && IsIdentChar(text[j])) ++j;
      std::string ident = text.substr(i, j - i);
      // Raw string literal: R"delim( ... )delim" (also u8R / uR / UR / LR).
      if (j < n && text[j] == '"' && !ident.empty() && ident.back() == 'R' &&
          ident.size() <= 3) {
        const std::size_t open_paren = text.find('(', j + 1);
        if (open_paren != std::string::npos) {
          const std::string delim =
              text.substr(j + 1, open_paren - j - 1);
          const std::string closer = ")" + delim + "\"";
          std::size_t end = text.find(closer, open_paren + 1);
          if (end == std::string::npos) end = n;
          for (std::size_t k = i; k < end && k < n; ++k) {
            if (text[k] == '\n') ++line;
          }
          emit(Token::Kind::kLiteral, "<raw-string>", line);
          i = (end == n) ? n : end + closer.size();
          continue;
        }
      }
      emit(Token::Kind::kIdent, std::move(ident), line);
      i = j;
      continue;
    }
    // Punctuation; "::" and "->" kept as single tokens (the rules look for
    // member access and scope qualification).
    if (i + 1 < n) {
      const std::string two = text.substr(i, 2);
      if (two == "::" || two == "->") {
        emit(Token::Kind::kPunct, two, line);
        i += 2;
        continue;
      }
    }
    emit(Token::Kind::kPunct, std::string(1, c), line);
    ++i;
  }
  return out;
}

bool IsSuppressed(const SuppressionMap& suppressions, int line,
                  const std::string& rule) {
  auto it = suppressions.find(line);
  return it != suppressions.end() && it->second.count(rule) > 0;
}

}  // namespace memfs::analyze
