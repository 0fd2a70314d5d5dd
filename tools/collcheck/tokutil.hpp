// collcheck token utilities shared by the analyzer, the taint engine, the
// dataflow layer and the rule passes: bracket matching, identifier search,
// statement ends, and a best-effort template argument skipper (so
// `recv_value<T>(...)` reads as a call).
#pragma once

#include <algorithm>
#include <cstddef>
#include <string_view>
#include <vector>

#include "lexer.hpp"

namespace collcheck {

using Toks = std::vector<Token>;

inline constexpr std::size_t kNpos = static_cast<std::size_t>(-1);

[[nodiscard]] inline bool is_punct(const Token& t, std::string_view s) {
  return t.kind == TokKind::kPunct && t.text == s;
}
[[nodiscard]] inline bool is_ident(const Token& t, std::string_view s) {
  return t.kind == TokKind::kIdent && t.text == s;
}

// Index of the token matching the opener at `open` ("(", "{", "["), or
// toks.size() when unbalanced.
[[nodiscard]] inline std::size_t match_bracket(const Toks& toks,
                                               std::size_t open) {
  const std::string& o = toks[open].text;
  const std::string c = o == "(" ? ")" : o == "{" ? "}" : "]";
  int depth = 0;
  for (std::size_t i = open; i < toks.size(); ++i) {
    if (is_punct(toks[i], o)) ++depth;
    else if (is_punct(toks[i], c) && --depth == 0) return i;
  }
  return toks.size();
}

// Does the token span [b, e) contain the identifier `word`?
[[nodiscard]] inline bool span_mentions(const Toks& toks, std::size_t b,
                                        std::size_t e, std::string_view word) {
  for (std::size_t i = b; i < e && i < toks.size(); ++i) {
    if (is_ident(toks[i], word)) return true;
  }
  return false;
}

// Statement end: next ";" at bracket depth 0 from `i`.
[[nodiscard]] inline std::size_t stmt_end(const Toks& toks, std::size_t i,
                                          std::size_t limit) {
  int depth = 0;
  for (; i < limit; ++i) {
    const Token& t = toks[i];
    if (is_punct(t, "(") || is_punct(t, "{") || is_punct(t, "[")) ++depth;
    else if (is_punct(t, ")") || is_punct(t, "}") || is_punct(t, "]")) --depth;
    else if (is_punct(t, ";") && depth == 0) return i;
  }
  return limit;
}

// Best-effort template-argument skipper.  `lt` indexes a "<" that may open
// a template argument list; returns the index one past the closing ">"
// when the span reads like one (balanced, short, no statement breaks), or
// kNpos when it is more plausibly a comparison.  ">>" closes two levels
// (the C++11 nested-template rule).
[[nodiscard]] inline std::size_t skip_template_args(const Toks& toks,
                                                    std::size_t lt) {
  int depth = 0;
  const std::size_t limit = std::min(toks.size(), lt + 64);
  for (std::size_t i = lt; i < limit; ++i) {
    const Token& t = toks[i];
    if (t.kind != TokKind::kPunct) continue;
    const std::string& s = t.text;
    if (s == "<") {
      ++depth;
    } else if (s == ">") {
      if (--depth == 0) return i + 1;
    } else if (s == ">>") {
      depth -= 2;
      if (depth <= 0) return depth == 0 ? i + 1 : kNpos;
    } else if (s == "(" || s == "[") {
      i = match_bracket(toks, i);
      if (i >= toks.size()) return kNpos;
    } else if (s == ";" || s == "{" || s == "}" || s == ")" || s == "]" ||
               s == "&&" || s == "||") {
      return kNpos;  // ran into statement structure: a comparison after all
    }
  }
  return kNpos;
}

// Split the argument list between `open` (the "(") and `close` (its match)
// into top-level comma-separated spans [begin, end).
[[nodiscard]] inline std::vector<std::pair<std::size_t, std::size_t>>
split_args(const Toks& toks, std::size_t open, std::size_t close) {
  std::vector<std::pair<std::size_t, std::size_t>> out;
  if (close <= open + 1) return out;
  int depth = 0;
  std::size_t begin = open + 1;
  for (std::size_t i = open + 1; i < close; ++i) {
    const Token& t = toks[i];
    if (is_punct(t, "(") || is_punct(t, "{") || is_punct(t, "[") ||
        is_punct(t, "<")) {
      ++depth;
    } else if (is_punct(t, ")") || is_punct(t, "}") || is_punct(t, "]") ||
               is_punct(t, ">")) {
      --depth;
    } else if (is_punct(t, ",") && depth == 0) {
      out.emplace_back(begin, i);
      begin = i + 1;
    }
  }
  out.emplace_back(begin, close);
  return out;
}

}  // namespace collcheck
