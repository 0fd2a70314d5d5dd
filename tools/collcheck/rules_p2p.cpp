// CC-P2P-* rules: static send/recv protocol matching.  The runtime leak
// audit (Comm::leak_report) finds unmatched sends only on paths that
// actually execute; this is its static twin over the scanned corpus:
//   CC-P2P-UNMATCHED  a send tag no recv ever names (or vice versa) —
//                     an orphan message or a recv that waits forever
//   CC-P2P-SELF       recv from the receiver's own rank: self-messages
//                     deadlock because the matching send never ran
//   CC-P2P-TAGDIV     the tag expression depends on rank-divergent data,
//                     so sender and receiver compute different tags
// Matching is by symbolic tag key across the whole corpus (union over
// files), documented with its limits in DESIGN.md §13.
#include <algorithm>
#include <cctype>
#include <map>
#include <string>
#include <vector>

#include "dataflow.hpp"
#include "taint.hpp"
#include "tokutil.hpp"

namespace collcheck {

namespace {

bool is_send_name(const std::string& n) {
  return n == "send_bytes" || n == "send_value";
}

bool is_recv_name(const std::string& n) {
  return n == "recv_bytes" || n == "recv_value";
}

// One p2p call site with its decoded argument spans.
struct P2pSite {
  const FileUnit* unit = nullptr;
  const FunctionInfo* fn = nullptr;
  const CallSite* call = nullptr;
  bool send = false;
  std::pair<std::size_t, std::size_t> peer_arg;  // [begin, end)
  std::pair<std::size_t, std::size_t> tag_arg;
};

// Symbolic tag key: the first protocol constant (`kSomething`) named in
// the tag expression, else a lone numeric literal.  Empty => unkeyed
// (complex/variable tag): excluded from UNMATCHED rather than guessed.
std::string tag_key(const Toks& toks, std::pair<std::size_t, std::size_t> arg) {
  for (std::size_t i = arg.first; i < arg.second; ++i) {
    const Token& t = toks[i];
    if (t.kind == TokKind::kIdent && t.text.size() > 1 && t.text[0] == 'k' &&
        std::isupper(static_cast<unsigned char>(t.text[1]))) {
      return t.text;
    }
  }
  if (arg.second == arg.first + 1 &&
      toks[arg.first].kind == TokKind::kNumber) {
    return "#" + toks[arg.first].text;
  }
  return {};
}

std::string span_text(const Toks& toks,
                      std::pair<std::size_t, std::size_t> arg) {
  std::string out;
  for (std::size_t i = arg.first; i < arg.second && i < arg.first + 8; ++i) {
    if (!out.empty()) out += ' ';
    out += toks[i].text.empty() ? "<str>" : toks[i].text;
  }
  return out;
}

std::vector<P2pSite> collect_sites(const std::vector<FileUnit>& files) {
  std::vector<P2pSite> sites;
  for (const FileUnit& unit : files) {
    const Toks& toks = unit.lexed.tokens;
    for (const FunctionInfo& fn : unit.functions) {
      for (const CallSite& c : fn.calls) {
        if (!c.method) continue;
        const bool send = is_send_name(c.name);
        if (!send && !is_recv_name(c.name)) continue;
        if (c.args_open == 0) continue;
        const auto args = split_args(toks, c.args_open,
                                     match_bracket(toks, c.args_open));
        if (args.size() < 2) continue;
        P2pSite s;
        s.unit = &unit;
        s.fn = &fn;
        s.call = &c;
        s.send = send;
        s.peer_arg = args[0];
        s.tag_arg = args[1];
        sites.push_back(s);
      }
    }
  }
  return sites;
}

// ---------------------------------------------------------------------------
// CC-P2P-SELF
// ---------------------------------------------------------------------------

// Is the peer expression this receiver's own rank?  Matches the literal
// form `R.rank()` / `R.world_rank()` on the same receiver `R` as the
// recv, or a local alias recorded as `auto me = R.rank();`.
bool peer_is_self(const P2pSite& s) {
  const Toks& toks = s.unit->lexed.tokens;
  const auto [b, e] = s.peer_arg;
  const std::string& recv_obj = s.call->receiver;
  if (e == b + 5 && toks[b].kind == TokKind::kIdent &&
      toks[b].text == recv_obj && is_punct(toks[b + 1], ".") &&
      toks[b + 2].kind == TokKind::kIdent &&
      (toks[b + 2].text == "rank" || toks[b + 2].text == "world_rank") &&
      is_punct(toks[b + 3], "(") && is_punct(toks[b + 4], ")")) {
    return true;
  }
  if (e == b + 1 && toks[b].kind == TokKind::kIdent) {
    for (const auto& [alias, obj] : s.fn->rank_aliases) {
      if (alias == toks[b].text && obj == recv_obj) return true;
    }
  }
  return false;
}

// ---------------------------------------------------------------------------
// CC-P2P-TAGDIV
// ---------------------------------------------------------------------------

// Does the tag expression diverge across ranks?  Either it names a
// variable assigned under rank-conditional control flow, or it embeds a
// conditional (`?:`) over a bare rank identifier.  Plain `kTag + rank`
// offsets are fine: both sides compute them from the same peer id.
bool tag_diverges(const P2pSite& s, std::string& why) {
  const Toks& toks = s.unit->lexed.tokens;
  for (const std::string& v : s.fn->divergent_vars) {
    if (span_mentions(toks, s.tag_arg.first, s.tag_arg.second, v)) {
      why = "uses '" + v + "', assigned under rank-dependent control flow";
      return true;
    }
  }
  bool has_cond = false;
  bool has_rank = false;
  for (std::size_t i = s.tag_arg.first; i < s.tag_arg.second; ++i) {
    if (is_punct(toks[i], "?")) has_cond = true;
    if (toks[i].kind == TokKind::kIdent &&
        rank_source_idents().count(toks[i].text) != 0 &&
        !(i + 1 < toks.size() && is_punct(toks[i + 1], "("))) {
      has_rank = true;
    }
  }
  if (has_cond && has_rank) {
    why = "selects the tag with a rank-dependent conditional";
    return true;
  }
  return false;
}

}  // namespace

void run_p2p_rules(const SharedModel& m, std::vector<Finding>& findings) {
  const std::vector<P2pSite> sites = collect_sites(*m.files);

  // Corpus-wide tag-key unions for UNMATCHED.
  std::map<std::string, std::vector<const P2pSite*>> send_keys;
  std::map<std::string, std::vector<const P2pSite*>> recv_keys;
  for (const P2pSite& s : sites) {
    const std::string key = tag_key(s.unit->lexed.tokens, s.tag_arg);
    if (key.empty()) continue;
    (s.send ? send_keys : recv_keys)[key].push_back(&s);
  }
  for (const auto& [key, ss] : send_keys) {
    if (recv_keys.count(key) != 0) continue;
    for (const P2pSite* s : ss) {
      findings.push_back(Finding{
          std::string(kRuleP2pUnmatched), s->unit->path, s->call->line,
          "send with tag '" + key +
              "' has no matching recv anywhere in the scanned sources; "
              "the message is an orphan (runtime twin: Comm::leak_report)"});
    }
  }
  for (const auto& [key, ss] : recv_keys) {
    if (send_keys.count(key) != 0) continue;
    for (const P2pSite* s : ss) {
      findings.push_back(Finding{
          std::string(kRuleP2pUnmatched), s->unit->path, s->call->line,
          "recv with tag '" + key +
              "' has no matching send anywhere in the scanned sources; "
              "this rank will block forever waiting for it"});
    }
  }

  for (const P2pSite& s : sites) {
    if (!s.send && peer_is_self(s)) {
      findings.push_back(Finding{
          std::string(kRuleP2pSelf), s.unit->path, s.call->line,
          "recv from the caller's own rank ('" +
              span_text(s.unit->lexed.tokens, s.peer_arg) +
              "'); a rank cannot receive a message it never posted — "
              "this deadlocks unless a prior self-send exists"});
    }
    std::string why;
    if (tag_diverges(s, why)) {
      findings.push_back(Finding{
          std::string(kRuleP2pTagDiv), s.unit->path, s.call->line,
          std::string(s.send ? "send" : "recv") + " tag expression " + why +
              "; sender and receiver can compute different tags and never "
              "match"});
    }
  }
}

}  // namespace collcheck
