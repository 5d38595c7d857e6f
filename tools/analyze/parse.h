// Declaration/scope parser for the semantic analyzer.
//
// Turns one lexed translation unit (tools/lexer.h) into a list of function
// definitions with resolved body token ranges. The parser is deliberately
// lightweight — no preprocessing, no template instantiation, no overload
// resolution — but it is scope-accurate where the rules need it:
//
//   * function bodies are found by matching braces, so a rule knows exactly
//     which tokens belong to which function;
//   * constructor initializer lists, class/namespace blocks, gtest TEST()
//     bodies and out-of-line `Class::Method` definitions are recognized;
//   * lambda bodies inside a function are mapped separately so rules can
//     treat deferred code differently from straight-line code;
//   * a function is marked as a coroutine when its body contains
//     co_await / co_return / co_yield.
//
// Everything here is shared by the rule passes in analyzer.cc and by the
// tests.
#pragma once

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "lexer.h"

namespace memfs::analyze {

struct FunctionInfo {
  std::string name;     // simple name (the identifier before the parameter list)
  std::string display;  // qualified form when known, e.g. "KvCluster::Get"
  int line = 0;         // line of the name token
  std::size_t name_token = 0;  // token index of the name
  std::size_t body_begin = 0;  // token index of the opening '{'
  std::size_t body_end = 0;    // token index of the matching '}'
  bool is_coroutine = false;
  // Brace ranges (token indices of '{' and '}') of lambda bodies nested in
  // this function, outermost first.
  std::vector<std::pair<std::size_t, std::size_t>> lambda_bodies;
};

struct TranslationUnit {
  std::string path;
  TokenizedFile lexed;
  std::vector<FunctionInfo> functions;
};

// Index of the token closing the bracket opened at `open` (forward) or
// opening the one closed at `close` (backward); npos when unbalanced.
std::size_t MatchForward(const std::vector<Token>& t, std::size_t open,
                         const char* open_text, const char* close_text);
std::size_t MatchBackward(const std::vector<Token>& t, std::size_t close,
                          const char* open_text, const char* close_text);

// Lexes and parses one source file.
TranslationUnit ParseTu(std::string path, const std::string& contents);

// True when token index `i` of `fn` lies inside one of its lambda bodies
// (exclusive of the enclosing function's own straight-line code).
bool InLambda(const FunctionInfo& fn, std::size_t i);

}  // namespace memfs::analyze
