#include "taint.hpp"

#include <algorithm>

#include "lexer.hpp"

namespace collcheck {

const std::unordered_set<std::string>& rank_source_idents() {
  static const std::unordered_set<std::string> kNames = {
      "rank", "rank_", "vrank", "world_rank", "my_rank", "myrank",
      "self_rank"};
  return kNames;
}

bool span_tainted(const Toks& toks, const RankTaint& taint, std::size_t b,
                  std::size_t e) {
  for (std::size_t i = b; i < e && i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind != TokKind::kIdent) continue;
    if (rank_source_idents().contains(t.text)) return true;
    if (taint.vars.contains(t.text)) return true;
  }
  return false;
}

namespace {

void collect_tainted_vars(const Toks& toks, RankTaint& taint, std::size_t b,
                          std::size_t e) {
  for (int pass = 0; pass < 2; ++pass) {
    for (std::size_t i = b; i + 1 < e; ++i) {
      if (toks[i].kind != TokKind::kIdent || is_cpp_keyword(toks[i].text)) {
        continue;
      }
      if (!is_punct(toks[i + 1], "=")) continue;
      // Exclude compound contexts: member writes (x.y = ...) still taint
      // nothing we can name simply; plain `ident = expr;` is the pattern.
      if (i > b && (is_punct(toks[i - 1], ".") || is_punct(toks[i - 1], "->"))) {
        continue;
      }
      const std::size_t end = stmt_end(toks, i + 2, e);
      if (span_tainted(toks, taint, i + 2, end)) {
        taint.vars.insert(toks[i].text);
      }
    }
  }
}

struct WalkExit {
  bool ret = false;  // rank-conditional return/throw seen
  bool brk = false;  // rank-conditional break/continue seen
};

// Walk [b, e) marking rank-conditional tokens in taint.at.  `tainted` is
// the inherited divergence of this region; `is_loop_body` scopes
// break/continue escalation.
WalkExit walk_region(const Toks& toks, RankTaint& taint, std::size_t b,
                     std::size_t e, bool tainted, bool is_loop_body) {
  WalkExit out;
  std::size_t i = b;
  while (i < e) {
    const Token& t = toks[i];
    if (tainted) taint.at[i - taint.base] = 1;

    const bool is_if = is_ident(t, "if");
    const bool is_loop = is_ident(t, "while") || is_ident(t, "for");
    const bool is_switch = is_ident(t, "switch");
    if ((is_if || is_loop || is_switch) && i + 1 < e) {
      std::size_t open = i + 1;
      // `if constexpr (...)`, `for constexpr` does not exist; skip one
      // ident between keyword and "(" (constexpr).
      if (open < e && toks[open].kind == TokKind::kIdent) ++open;
      if (open >= e || !is_punct(toks[open], "(")) {
        ++i;
        continue;
      }
      const std::size_t close = match_bracket(toks, open);
      if (close >= e) {
        ++i;
        continue;
      }
      const bool cond_taint =
          tainted || span_tainted(toks, taint, open + 1, close);
      // The header tokens stay unmarked: a loop counter declared in a
      // rank-guarded header is not a rank-divergent value.
      std::size_t body_start = close + 1;
      std::size_t body_close;  // one past the region
      WalkExit sub;
      if (body_start < e && is_punct(toks[body_start], "{")) {
        body_close = std::min(match_bracket(toks, body_start), e);
        sub = walk_region(toks, taint, body_start + 1, body_close, cond_taint,
                          is_loop);
        i = body_close + 1;
      } else {
        body_close = stmt_end(toks, body_start, e);
        sub = walk_region(toks, taint, body_start, body_close, cond_taint,
                          is_loop);
        i = body_close + 1;
      }
      // Early-exit escalation: only when the condition itself introduced
      // the divergence at this level.  `throw` deliberately does not count:
      // an exception aborts the run, so the code after it never executes on
      // the throwing rank and the collective sequence question is moot
      // (rank-guarded invariant throws are common and benign).
      if (cond_taint && !tainted) {
        if (span_mentions(toks, body_start, body_close, "return")) {
          out.ret = true;
        }
        if (span_mentions(toks, body_start, body_close, "break") ||
            span_mentions(toks, body_start, body_close, "continue")) {
          out.brk = true;
        }
      }
      if (sub.ret) out.ret = true;
      if (sub.brk && !is_loop) out.brk = true;  // loops absorb their breaks
      if (out.ret || (out.brk && is_loop_body)) tainted = true;
      // `else` clause shares the if-condition's divergence.
      if (is_if && i < e && is_ident(toks[i], "else")) {
        std::size_t eb = i + 1;
        WalkExit esub;
        if (eb < e && is_punct(toks[eb], "{")) {
          const std::size_t ec = std::min(match_bracket(toks, eb), e);
          esub = walk_region(toks, taint, eb + 1, ec, cond_taint || tainted,
                             is_loop_body);
          i = ec + 1;
        } else if (eb < e && is_ident(toks[eb], "if")) {
          i = eb;  // else-if: loop handles it; approximate (drops the
                   // accumulated negation, fine for a linter)
          continue;
        } else {
          const std::size_t ec = stmt_end(toks, eb, e);
          esub = walk_region(toks, taint, eb, ec, cond_taint || tainted,
                             is_loop_body);
          i = ec + 1;
        }
        if (cond_taint && !tainted) {
          if (esub.ret) out.ret = true;
          if (esub.brk) out.brk = true;
        }
        if (out.ret || (out.brk && is_loop_body)) tainted = true;
      }
      continue;
    }

    if (is_punct(t, "{")) {
      const std::size_t close = std::min(match_bracket(toks, i), e);
      const WalkExit sub = walk_region(toks, taint, i + 1, close, tainted,
                                       is_loop_body);
      if (sub.ret) out.ret = true;
      if (sub.brk) out.brk = true;
      if (out.ret || (out.brk && is_loop_body)) tainted = true;
      i = close + 1;
      continue;
    }
    ++i;
  }
  return out;
}

}  // namespace

RankTaint rank_taint(const Toks& toks, std::size_t b, std::size_t e) {
  RankTaint taint;
  e = std::min(e, toks.size());
  if (b >= e) return taint;
  taint.base = b;
  taint.at.assign(e - b, 0);
  collect_tainted_vars(toks, taint, b, e);
  (void)walk_region(toks, taint, b, e, false, false);
  return taint;
}

}  // namespace collcheck
