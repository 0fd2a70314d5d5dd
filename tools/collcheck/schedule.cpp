#include "schedule.hpp"

#include <algorithm>
#include <map>
#include <set>
#include <sstream>
#include <unordered_map>
#include <unordered_set>

#include "analyzer.hpp"
#include "dataflow.hpp"
#include "taint.hpp"
#include "tokutil.hpp"

namespace collcheck {

namespace {

using Kind = SchedNode::Kind;

[[nodiscard]] bool sched_is_p2p(const CallSite& c) {
  return c.name == "send_bytes" || c.name == "send_value" ||
         c.name == "recv_bytes" || c.name == "recv_value";
}

// Calls that legitimately terminate a RankDeadError unwind path: the
// handler hands control to the failure protocol instead of running its
// own collectives.
[[nodiscard]] bool is_sanctioned_recovery(const std::string& name) {
  return name == "shrink" || name == "recover_world" || name == "recover";
}

// ---------------------------------------------------------------------------
// Automaton construction: one structural walk per function body.
// ---------------------------------------------------------------------------

struct BuildCtx {
  const Toks* toks = nullptr;
  const RankTaint* taint = nullptr;  // computed once by analyze_function
  std::unordered_map<std::size_t, const CallSite*> call_at;
};

SchedNode walk_span(BuildCtx& bc, std::size_t b, std::size_t e);

// Parse a control header `kw [ident] ( ... )`; returns false when the
// shape is not there.  `open`/`close` delimit the parenthesized header.
[[nodiscard]] bool parse_header(const Toks& toks, std::size_t kw,
                                std::size_t e, std::size_t& open,
                                std::size_t& close) {
  open = kw + 1;
  // `if constexpr (...)` — skip one identifier between keyword and "(".
  if (open < e && toks[open].kind == TokKind::kIdent) ++open;
  if (open >= e || !is_punct(toks[open], "(")) return false;
  close = match_bracket(toks, open);
  return close < e;
}

// Parse the region after a control header: `{ ... }` or a single
// statement.  Returns the walked subtree and sets `past` one past it.
SchedNode walk_branch(BuildCtx& bc, std::size_t body_b, std::size_t e,
                      std::size_t& past, std::size_t& body_e) {
  const Toks& toks = *bc.toks;
  if (body_b < e && is_punct(toks[body_b], "{")) {
    body_e = std::min(match_bracket(toks, body_b), e);
    past = body_e + 1;
    return walk_span(bc, body_b + 1, body_e);
  }
  body_e = stmt_end(toks, body_b, e);
  past = body_e + 1;
  return walk_span(bc, body_b, body_e);
}

[[nodiscard]] bool inherited_divergent(const BuildCtx& bc, std::size_t kw) {
  return bc.taint->at_tok(kw);
}

// `if`/`else if`/`else` chain -> one kAlt with a branch per arm plus a
// trailing empty branch when there is no final `else`.
SchedNode walk_if_chain(BuildCtx& bc, std::size_t i, std::size_t e,
                        std::size_t& resume) {
  const Toks& toks = *bc.toks;
  SchedNode alt;
  alt.kind = Kind::kAlt;
  alt.line = toks[i].line;
  alt.divergent = inherited_divergent(bc, i);
  bool has_else = false;
  std::size_t k = i;
  resume = kNpos;
  while (true) {
    std::size_t open = 0;
    std::size_t close = 0;
    if (!parse_header(toks, k, e, open, close)) break;
    if (span_tainted(toks, *bc.taint, open + 1, close)) alt.divergent = true;
    std::size_t past = 0;
    std::size_t body_e = 0;
    alt.children.push_back(walk_branch(bc, close + 1, e, past, body_e));
    alt.branch_exits.push_back(
        span_mentions(toks, close + 1, body_e + 1, "return") ? 1 : 0);
    if (past < e && is_ident(toks[past], "else")) {
      const std::size_t eb = past + 1;
      if (eb < e && is_ident(toks[eb], "if")) {
        k = eb;
        continue;  // else-if: next arm of the same alt
      }
      has_else = true;
      std::size_t epast = 0;
      std::size_t ebody_e = 0;
      alt.children.push_back(walk_branch(bc, eb, e, epast, ebody_e));
      alt.branch_exits.push_back(
          span_mentions(toks, eb, ebody_e + 1, "return") ? 1 : 0);
      resume = epast;
    } else {
      resume = past;
    }
    break;
  }
  if (!has_else && !alt.children.empty()) {
    SchedNode empty;
    empty.kind = Kind::kSeq;
    empty.line = alt.line;
    alt.children.push_back(std::move(empty));
    alt.branch_exits.push_back(0);
  }
  return alt;
}

// `switch` -> kAlt with one branch per top-level case/default segment.
// Fallthrough between cases is not modeled (DESIGN.md §15 false
// negatives); each segment is treated as an independent branch.
SchedNode walk_switch(BuildCtx& bc, std::size_t i, std::size_t e,
                      std::size_t& resume) {
  const Toks& toks = *bc.toks;
  resume = kNpos;
  std::size_t open = 0;
  std::size_t close = 0;
  if (!parse_header(toks, i, e, open, close)) return {};
  SchedNode alt;
  alt.kind = Kind::kAlt;
  alt.line = toks[i].line;
  alt.divergent = inherited_divergent(bc, i) ||
                  span_tainted(toks, *bc.taint, open + 1, close);
  const std::size_t body_b = close + 1;
  if (body_b >= e || !is_punct(toks[body_b], "{")) return {};
  const std::size_t body_e = std::min(match_bracket(toks, body_b), e);
  resume = body_e + 1;
  // Segment boundaries: `case <expr>:` / `default:` at switch-brace depth.
  std::vector<std::size_t> starts;
  int depth = 0;
  for (std::size_t j = body_b + 1; j < body_e; ++j) {
    const Token& t = toks[j];
    if (is_punct(t, "{") || is_punct(t, "(") || is_punct(t, "[")) {
      ++depth;
    } else if (is_punct(t, "}") || is_punct(t, ")") || is_punct(t, "]")) {
      --depth;
    } else if (depth == 0 &&
               (is_ident(t, "case") || is_ident(t, "default"))) {
      std::size_t colon = j + 1;
      while (colon < body_e && !is_punct(toks[colon], ":")) ++colon;
      if (colon < body_e) starts.push_back(colon + 1);
      j = colon;
    }
  }
  if (starts.empty()) {
    alt.children.push_back(walk_span(bc, body_b + 1, body_e));
    alt.branch_exits.push_back(
        span_mentions(toks, body_b + 1, body_e, "return") ? 1 : 0);
  } else {
    for (std::size_t s = 0; s < starts.size(); ++s) {
      const std::size_t seg_b = starts[s];
      const std::size_t seg_e = s + 1 < starts.size()
                                    ? starts[s + 1]
                                    : body_e;
      alt.children.push_back(walk_span(bc, seg_b, seg_e));
      alt.branch_exits.push_back(
          span_mentions(toks, seg_b, seg_e, "return") ? 1 : 0);
    }
  }
  // Without a `default:` segment the switch may match nothing.
  if (!starts.empty() &&
      !span_mentions(toks, body_b + 1, body_e, "default")) {
    SchedNode empty;
    empty.kind = Kind::kSeq;
    empty.line = alt.line;
    alt.children.push_back(std::move(empty));
    alt.branch_exits.push_back(0);
  }
  return alt;
}

// `try { } catch (T) { } ...` -> kTry with the caught type names.  The
// recorded type is the first non-cv identifier in the clause ("..." for
// ellipsis), which is what the RankDead matching needs.
SchedNode walk_try(BuildCtx& bc, std::size_t i, std::size_t e,
                   std::size_t& resume) {
  const Toks& toks = *bc.toks;
  resume = kNpos;
  const std::size_t body_b = i + 1;
  if (body_b >= e || !is_punct(toks[body_b], "{")) return {};
  const std::size_t body_e = std::min(match_bracket(toks, body_b), e);
  SchedNode node;
  node.kind = Kind::kTry;
  node.line = toks[i].line;
  node.children.push_back(walk_span(bc, body_b + 1, body_e));
  std::size_t k = body_e + 1;
  while (k < e && is_ident(toks[k], "catch")) {
    const int catch_line = toks[k].line;
    const std::size_t po = k + 1;
    if (po >= e || !is_punct(toks[po], "(")) break;
    const std::size_t pc = std::min(match_bracket(toks, po), e);
    std::string type = "...";
    for (std::size_t a = po + 1; a < pc; ++a) {
      if (toks[a].kind != TokKind::kIdent) continue;
      const std::string& s = toks[a].text;
      if (s == "const" || s == "volatile" || s == "struct" || s == "class") {
        continue;
      }
      // Accumulate the qualified type name (ns::ns::Type); the exception
      // variable, if any, is separated by &/* and never follows a "::".
      type = s;
      std::size_t q = a + 1;
      while (q + 1 < pc && is_punct(toks[q], "::") &&
             toks[q + 1].kind == TokKind::kIdent) {
        type += "::" + toks[q + 1].text;
        q += 2;
      }
      break;
    }
    const std::size_t hb = pc + 1;
    if (hb >= e || !is_punct(toks[hb], "{")) break;
    const std::size_t hc = std::min(match_bracket(toks, hb), e);
    SchedNode handler = walk_span(bc, hb + 1, hc);
    handler.line = catch_line;
    node.catch_types.push_back(std::move(type));
    node.children.push_back(std::move(handler));
    k = hc + 1;
  }
  resume = k;
  return node;
}

SchedNode walk_span(BuildCtx& bc, std::size_t b, std::size_t e) {
  const Toks& toks = *bc.toks;
  SchedNode seq;
  seq.kind = Kind::kSeq;
  if (b < e && b < toks.size()) seq.line = toks[b].line;
  std::size_t i = b;
  while (i < e) {
    const Token& t = toks[i];

    if (is_ident(t, "if")) {
      std::size_t resume = kNpos;
      SchedNode alt = walk_if_chain(bc, i, e, resume);
      if (resume == kNpos) {
        ++i;  // malformed header; skip the keyword
        continue;
      }
      if (!alt.children.empty()) seq.children.push_back(std::move(alt));
      i = resume;
      continue;
    }
    if (is_ident(t, "while") || is_ident(t, "for")) {
      std::size_t open = 0;
      std::size_t close = 0;
      if (!parse_header(toks, i, e, open, close)) {
        ++i;
        continue;
      }
      SchedNode loop;
      loop.kind = Kind::kLoop;
      loop.line = t.line;
      loop.divergent = inherited_divergent(bc, i) ||
                       span_tainted(toks, *bc.taint, open + 1, close);
      std::size_t past = 0;
      std::size_t body_e = 0;
      loop.children.push_back(walk_branch(bc, close + 1, e, past, body_e));
      seq.children.push_back(std::move(loop));
      i = past;
      continue;
    }
    if (is_ident(t, "switch")) {
      std::size_t resume = kNpos;
      SchedNode alt = walk_switch(bc, i, e, resume);
      if (resume == kNpos) {
        ++i;
        continue;
      }
      if (!alt.children.empty()) seq.children.push_back(std::move(alt));
      i = resume;
      continue;
    }
    if (is_ident(t, "try")) {
      std::size_t resume = kNpos;
      SchedNode node = walk_try(bc, i, e, resume);
      if (resume == kNpos) {
        ++i;
        continue;
      }
      seq.children.push_back(std::move(node));
      i = resume;
      continue;
    }
    if (is_punct(t, "{")) {
      // Plain block (or lambda body): splice its sequence inline.
      const std::size_t close = std::min(match_bracket(toks, i), e);
      SchedNode sub = walk_span(bc, i + 1, close);
      for (SchedNode& c : sub.children) {
        seq.children.push_back(std::move(c));
      }
      i = close + 1;
      continue;
    }
    const auto cit = bc.call_at.find(i);
    if (cit != bc.call_at.end()) {
      const CallSite& c = *cit->second;
      SchedNode n;
      n.line = c.line;
      n.name = c.name;
      n.rank_conditional = c.rank_conditional;
      if (c.collective) {
        n.kind = Kind::kOp;
      } else if (sched_is_p2p(c)) {
        n.kind = Kind::kOp;
        n.p2p = true;
      } else {
        n.kind = Kind::kCall;
      }
      seq.children.push_back(std::move(n));
      ++i;
      continue;
    }
    ++i;
  }
  return seq;
}

// ---------------------------------------------------------------------------
// Inter-procedural composition
// ---------------------------------------------------------------------------

struct FnSched {
  const FileUnit* unit = nullptr;
  const FunctionInfo* fn = nullptr;
  SchedNode root;
};

// What a call to a name can execute.  Ordered, so the fixpoint only ever
// raises a name's reach.
enum class Reach : unsigned char { kNone, kP2p, kCollective };

void gather_summary(const SchedNode& n, Reach& reach,
                    std::vector<std::string>& calls) {
  if (n.kind == Kind::kOp) {
    reach = std::max(reach, n.p2p ? Reach::kP2p : Reach::kCollective);
    return;
  }
  if (n.kind == Kind::kCall) {
    calls.push_back(n.name);
    return;
  }
  for (const SchedNode& c : n.children) gather_summary(c, reach, calls);
}

constexpr int kExpandDepth = 6;

struct Engine {
  std::vector<FnSched> fns;
  // Name -> all definitions, sorted by (path, line); the lexically first
  // is the canonical one expansions inline (DESIGN.md §15).
  std::map<std::string, std::vector<const FnSched*>> by_name;
  // Name-collapsed op-bearing fixpoint.  Any op keeps a call node in
  // schedules (is_bearing); only a collective makes a rank-conditional
  // call a CC-COLL-DIV-CALL, since rank-guarded p2p is the normal
  // root/leaf shape.
  std::unordered_map<std::string, Reach> reach;

  std::unordered_map<std::string, std::vector<std::string>> ops_memo;
  std::set<std::string> ops_busy;
  std::map<std::pair<std::string, int>, std::string> render_memo;
  std::set<std::string> render_busy;

  [[nodiscard]] Reach reach_of(const std::string& name) const {
    const auto it = reach.find(name);
    return it == reach.end() ? Reach::kNone : it->second;
  }
  [[nodiscard]] bool is_bearing(const std::string& name) const {
    return reach_of(name) != Reach::kNone;
  }
  [[nodiscard]] bool reaches_collective(const std::string& name) const {
    return reach_of(name) == Reach::kCollective;
  }
  [[nodiscard]] const FnSched* canon(const std::string& name) const {
    const auto it = by_name.find(name);
    return it == by_name.end() ? nullptr : it->second.front();
  }
};

Engine build_engine(const std::vector<FileUnit>& files) {
  Engine eng;
  for (const FileUnit& u : files) {
    for (const FunctionInfo& f : u.functions) {
      BuildCtx bc;
      bc.toks = &u.lexed.tokens;
      bc.taint = &f.taint;
      for (const CallSite& c : f.calls) bc.call_at.emplace(c.tok, &c);
      FnSched fs;
      fs.unit = &u;
      fs.fn = &f;
      fs.root = walk_span(bc, f.body_begin, f.body_end);
      eng.fns.push_back(std::move(fs));
    }
  }
  for (const FnSched& fs : eng.fns) {
    eng.by_name[fs.fn->name].push_back(&fs);
  }
  for (auto& [name, defs] : eng.by_name) {
    std::sort(defs.begin(), defs.end(),
              [](const FnSched* a, const FnSched* b) {
                return std::tie(a->unit->path, a->fn->line) <
                       std::tie(b->unit->path, b->fn->line);
              });
  }
  // Op-bearing fixpoint over the name-collapsed call graph: a name reaches
  // what any definition of it reaches.
  std::map<std::string, std::vector<std::string>> callees;
  for (const FnSched& fs : eng.fns) {
    Reach& r = eng.reach[fs.fn->name];
    gather_summary(fs.root, r, callees[fs.fn->name]);
  }
  bool changed = true;
  int rounds = 0;
  while (changed && ++rounds < 64) {
    changed = false;
    for (const auto& [name, cs] : callees) {
      Reach& r = eng.reach[name];
      for (const std::string& c : cs) {
        const Reach cr = eng.reach_of(c);
        if (cr > r) {
          r = cr;
          changed = true;
        }
      }
    }
  }
  return eng;
}

// ---------------------------------------------------------------------------
// Canonical collective content: multiset atoms and ordered signatures
// ---------------------------------------------------------------------------

std::vector<std::string> ops_of_name(Engine& eng, const std::string& name);

// Flatten a subtree to its collective "atoms": op names, plus composite
// atoms for structure the flattening cannot erase — an invariant alt whose
// branches differ contributes `{a|b}`, a loop body contributes `(a)*`.
// p2p ops are excluded: rank-guarded send/recv is the normal root/leaf
// protocol shape, not schedule divergence.
void ops_of_node(Engine& eng, const SchedNode& n,
                 std::vector<std::string>& out) {
  switch (n.kind) {
    case Kind::kOp:
      if (!n.p2p) out.push_back(n.name);
      return;
    case Kind::kCall:
      if (eng.is_bearing(n.name)) {
        const std::vector<std::string> callee = ops_of_name(eng, n.name);
        out.insert(out.end(), callee.begin(), callee.end());
      }
      return;
    case Kind::kSeq:
      for (const SchedNode& c : n.children) ops_of_node(eng, c, out);
      return;
    case Kind::kAlt: {
      std::vector<std::vector<std::string>> branches;
      for (const SchedNode& c : n.children) {
        std::vector<std::string> b;
        ops_of_node(eng, c, b);
        std::sort(b.begin(), b.end());
        branches.push_back(std::move(b));
      }
      const bool all_equal = std::all_of(
          branches.begin(), branches.end(),
          [&](const std::vector<std::string>& b) { return b == branches[0]; });
      if (all_equal) {
        out.insert(out.end(), branches[0].begin(), branches[0].end());
        return;
      }
      std::string atom = "{";
      for (std::size_t i = 0; i < branches.size(); ++i) {
        if (i != 0) atom += "|";
        std::string joined;
        for (const std::string& o : branches[i]) {
          if (!joined.empty()) joined += ",";
          joined += o;
        }
        atom += joined.empty() ? "-" : joined;
      }
      atom += "}";
      out.push_back(std::move(atom));
      return;
    }
    case Kind::kLoop: {
      std::vector<std::string> body;
      for (const SchedNode& c : n.children) ops_of_node(eng, c, body);
      if (body.empty()) return;
      std::sort(body.begin(), body.end());
      std::string atom = "(";
      for (std::size_t i = 0; i < body.size(); ++i) {
        if (i != 0) atom += ",";
        atom += body[i];
      }
      atom += ")*";
      out.push_back(std::move(atom));
      return;
    }
    case Kind::kTry:
      // Normal path only; the unwind path has its own rule.
      if (!n.children.empty()) ops_of_node(eng, n.children.front(), out);
      return;
  }
}

std::vector<std::string> ops_of_name(Engine& eng, const std::string& name) {
  const auto memo = eng.ops_memo.find(name);
  if (memo != eng.ops_memo.end()) return memo->second;
  if (eng.ops_busy.contains(name)) return {};  // recursion: cut the cycle
  const FnSched* fs = eng.canon(name);
  if (fs == nullptr) return {};
  eng.ops_busy.insert(name);
  std::vector<std::string> out;
  ops_of_node(eng, fs->root, out);
  eng.ops_busy.erase(name);
  eng.ops_memo.emplace(name, out);
  return out;
}

[[nodiscard]] std::vector<std::string> sorted_ops(Engine& eng,
                                                  const SchedNode& n) {
  std::vector<std::string> out;
  ops_of_node(eng, n, out);
  std::sort(out.begin(), out.end());
  return out;
}

[[nodiscard]] std::string join_ops(const std::vector<std::string>& ops) {
  if (ops.empty()) return "(none)";
  std::string out;
  for (const std::string& o : ops) {
    if (!out.empty()) out += ",";
    out += o;
  }
  return out;
}

// ---------------------------------------------------------------------------
// Canonical rendering (shared by CC-SCHED-ORDER signatures and the
// --dump-schedules artifact)
// ---------------------------------------------------------------------------

// kDump is the --dump-schedules artifact: p2p ops shown, callees inlined
// under their names.  kSig is the CC-SCHED-ORDER signature: collectives
// only, callees inlined transparently so two helpers with identical
// schedules compare equal regardless of their names.
enum class RenderMode { kSig, kDump };

std::string render_name(Engine& eng, const std::string& name, int depth,
                        RenderMode mode);

// Canonicalized text form.  Empty string == "no collective content":
// callers drop such subtrees.
std::string render_node(Engine& eng, const SchedNode& n, int depth,
                        RenderMode mode) {
  switch (n.kind) {
    case Kind::kOp:
      if (n.p2p && mode != RenderMode::kDump) return {};
      return n.p2p ? "p2p:" + n.name : n.name;
    case Kind::kCall: {
      if (!eng.is_bearing(n.name)) return {};
      if (depth <= 0) {
        return mode == RenderMode::kDump ? n.name + "{...}"
                                         : std::string("...");
      }
      const std::string inner = render_name(eng, n.name, depth - 1, mode);
      if (mode != RenderMode::kDump) return inner;
      if (inner.empty()) return {};
      return n.name + "{ " + inner + " }";
    }
    case Kind::kSeq: {
      std::string out;
      for (const SchedNode& c : n.children) {
        const std::string r = render_node(eng, c, depth, mode);
        if (r.empty()) continue;
        if (!out.empty()) out += " ; ";
        out += r;
      }
      return out;
    }
    case Kind::kAlt: {
      std::vector<std::string> branches;
      branches.reserve(n.children.size());
      for (const SchedNode& c : n.children) {
        branches.push_back(render_node(eng, c, depth, mode));
      }
      const bool all_equal = std::all_of(
          branches.begin(), branches.end(),
          [&](const std::string& b) { return b == branches[0]; });
      if (all_equal) return branches[0];  // collapse: schedule-equal arms
      std::string out = n.divergent ? "alt[rank]( " : "alt[cfg]( ";
      for (std::size_t i = 0; i < branches.size(); ++i) {
        if (i != 0) out += " | ";
        out += branches[i].empty() ? "-" : branches[i];
      }
      out += " )";
      return out;
    }
    case Kind::kLoop: {
      std::string body;
      for (const SchedNode& c : n.children) {
        const std::string r = render_node(eng, c, depth, mode);
        if (r.empty()) continue;
        if (!body.empty()) body += " ; ";
        body += r;
      }
      if (body.empty()) return {};
      return (n.divergent ? std::string("loop[rank]( ")
                          : std::string("loop[cfg]( ")) +
             body + " )";
    }
    case Kind::kTry: {
      if (n.children.empty()) return {};
      const std::string body =
          render_node(eng, n.children.front(), depth, mode);
      std::string handlers;
      for (std::size_t h = 1; h < n.children.size(); ++h) {
        const std::string hr = render_node(eng, n.children[h], depth, mode);
        if (hr.empty()) continue;
        handlers += " catch<" + n.catch_types[h - 1] + ">( " + hr + " )";
      }
      if (body.empty() && handlers.empty()) return {};
      return "try( " + (body.empty() ? "-" : body) + " )" + handlers;
    }
  }
  return {};
}

std::string render_name(Engine& eng, const std::string& name, int depth,
                        RenderMode mode) {
  // The memo is only safe for dump rendering (sig rendering recomputes;
  // it is shallow — one divergent alt's branches at a time).
  if (mode == RenderMode::kDump) {
    const auto memo = eng.render_memo.find({name, depth});
    if (memo != eng.render_memo.end()) return memo->second;
  }
  if (eng.render_busy.contains(name)) {
    return mode == RenderMode::kDump ? "@" + name : std::string("...");
  }
  const FnSched* fs = eng.canon(name);
  if (fs == nullptr) return {};
  eng.render_busy.insert(name);
  const std::string out = render_node(eng, fs->root, depth, mode);
  eng.render_busy.erase(name);
  if (mode == RenderMode::kDump) {
    eng.render_memo.emplace(std::make_pair(name, depth), out);
  }
  return out;
}

// Ordered collective signature of a subtree, for CC-SCHED-ORDER.
[[nodiscard]] std::string sig_of(Engine& eng, const SchedNode& n) {
  return render_node(eng, n, kExpandDepth, RenderMode::kSig);
}

// ---------------------------------------------------------------------------
// CC-SCHED rules
// ---------------------------------------------------------------------------

enum class UScan { kFall, kStop, kOffend };

// Scan an unwind handler in schedule order for the first collective
// content reached before a sanctioned recovery call.
UScan scan_unwind(Engine& eng, const SchedNode& n, const SchedNode** off) {
  switch (n.kind) {
    case Kind::kOp:
      if (n.p2p) return UScan::kFall;
      *off = &n;
      return UScan::kOffend;
    case Kind::kCall:
      if (is_sanctioned_recovery(n.name)) return UScan::kStop;
      if (eng.is_bearing(n.name)) {
        *off = &n;
        return UScan::kOffend;
      }
      return UScan::kFall;
    case Kind::kSeq:
      for (const SchedNode& c : n.children) {
        const UScan r = scan_unwind(eng, c, off);
        if (r != UScan::kFall) return r;
      }
      return UScan::kFall;
    case Kind::kAlt: {
      bool all_stop = !n.children.empty();
      for (const SchedNode& c : n.children) {
        const UScan r = scan_unwind(eng, c, off);
        if (r == UScan::kOffend) return r;
        if (r != UScan::kStop) all_stop = false;
      }
      return all_stop ? UScan::kStop : UScan::kFall;
    }
    case Kind::kLoop:
      for (const SchedNode& c : n.children) {
        const UScan r = scan_unwind(eng, c, off);
        if (r == UScan::kOffend) return r;
      }
      return UScan::kFall;  // zero iterations are possible: keep scanning
    case Kind::kTry:
      return n.children.empty() ? UScan::kFall
                                : scan_unwind(eng, n.children.front(), off);
  }
  return UScan::kFall;
}

struct RuleVisitor {
  Engine* eng = nullptr;
  const FnSched* fs = nullptr;
  std::vector<Finding>* findings = nullptr;

  void emit(std::string_view rule, int line, std::string msg) const {
    findings->push_back(Finding{std::string(rule), fs->unit->path, line,
                                std::move(msg)});
  }

  void check_alt(const SchedNode& n) const {
    if (!n.divergent) return;
    std::vector<std::vector<std::string>> bops;
    bops.reserve(n.children.size());
    for (const SchedNode& c : n.children) {
      bops.push_back(sorted_ops(*eng, c));
    }
    for (std::size_t i = 1; i < bops.size(); ++i) {
      if (bops[i] != bops[0]) {
        emit(kRuleSchedDiv, n.line,
             "rank-dependent branches execute different collective "
             "schedules: [" +
                 join_ops(bops[0]) + "] vs [" + join_ops(bops[i]) +
                 "]; every rank must run the same collective sequence");
        return;
      }
    }
    if (bops[0].empty()) return;  // no collective content: nothing to order
    std::vector<std::string> sigs;
    sigs.reserve(n.children.size());
    for (const SchedNode& c : n.children) sigs.push_back(sig_of(*eng, c));
    for (std::size_t i = 1; i < sigs.size(); ++i) {
      if (sigs[i] != sigs[0]) {
        emit(kRuleSchedOrder, n.line,
             "rank-dependent branches reorder the collective schedule: '" +
                 sigs[0] + "' vs '" + sigs[i] +
                 "'; ranks taking different branches will cross-match "
                 "collectives");
        return;
      }
    }
  }

  void check_loop(const SchedNode& n) const {
    if (!n.divergent) return;
    std::vector<std::string> body;
    for (const SchedNode& c : n.children) ops_of_node(*eng, c, body);
    if (body.empty()) return;
    std::sort(body.begin(), body.end());
    emit(kRuleSchedLoop, n.line,
         "collective schedule [" + join_ops(body) +
             "] executes inside a loop whose trip count is rank-dependent; "
             "ranks will run different numbers of collective rounds");
  }

  void check_try(const SchedNode& n) const {
    for (std::size_t h = 1; h < n.children.size(); ++h) {
      if (n.catch_types[h - 1].find("RankDead") == std::string::npos) {
        continue;
      }
      const SchedNode* off = nullptr;
      if (scan_unwind(*eng, n.children[h], &off) == UScan::kOffend &&
          off != nullptr) {
        emit(kRuleSchedUnwind, off->line,
             "'" + off->name +
                 "' executes on the RankDeadError unwind path before "
                 "shrink/recover_world; ranks that did not observe the "
                 "failure never run it and the schedules diverge");
      }
    }
  }

  // kSeq iteration also handles the skipped-tail CC-SCHED-DIV variant:
  // a rank-dependent early return makes everything after the alt
  // single-sided.
  void visit_seq(const SchedNode& seq) const {
    for (std::size_t j = 0; j < seq.children.size(); ++j) {
      const SchedNode& c = seq.children[j];
      visit(c);
      if (c.kind != Kind::kAlt || !c.divergent) continue;
      const bool exits = std::any_of(c.branch_exits.begin(),
                                     c.branch_exits.end(),
                                     [](unsigned char x) { return x != 0; });
      if (!exits) continue;
      std::vector<std::string> tail;
      for (std::size_t k = j + 1; k < seq.children.size(); ++k) {
        ops_of_node(*eng, seq.children[k], tail);
      }
      if (tail.empty()) continue;
      std::sort(tail.begin(), tail.end());
      emit(kRuleSchedDiv, c.line,
           "rank-dependent early return skips the subsequent collective "
           "schedule [" +
               join_ops(tail) +
               "]; returning ranks never reach these collectives");
    }
  }

  void visit(const SchedNode& n) const {
    switch (n.kind) {
      case Kind::kSeq:
        visit_seq(n);
        return;
      case Kind::kAlt:
        check_alt(n);
        for (const SchedNode& c : n.children) visit(c);
        return;
      case Kind::kLoop:
        check_loop(n);
        for (const SchedNode& c : n.children) visit(c);
        return;
      case Kind::kTry:
        check_try(n);
        for (const SchedNode& c : n.children) visit(c);
        return;
      case Kind::kOp:
        if (!n.p2p && n.rank_conditional) {
          emit(kRuleCollDiv, n.line,
               "collective '" + n.name +
                   "' is reachable only under rank-dependent control flow; "
                   "all ranks must execute the same collective sequence");
        }
        return;
      case Kind::kCall:
        if (n.rank_conditional && eng->reaches_collective(n.name)) {
          emit(kRuleCollDivCall, n.line,
               "call to '" + n.name +
                   "' (which transitively executes collectives) is "
                   "reachable only under rank-dependent control flow");
        }
        return;
    }
  }
};

}  // namespace

void run_schedule_rules(const std::vector<FileUnit>& files,
                        std::vector<Finding>& findings) {
  Engine eng = build_engine(files);
  for (const FnSched& fs : eng.fns) {
    RuleVisitor v{&eng, &fs, &findings};
    v.visit(fs.root);
  }
}

// ---------------------------------------------------------------------------
// CC-FIBER rules
// ---------------------------------------------------------------------------

void run_fiber_rules(const SharedModel& m, std::vector<Finding>& findings) {
  static const std::unordered_set<std::string> kWaitMethods = {
      "wait", "wait_for", "wait_until"};
  static const std::unordered_set<std::string> kSleepCalls = {
      "sleep_for", "sleep_until", "sleep", "usleep", "nanosleep"};

  const auto sim_path = [](const FileUnit& u) {
    const int r = layer_rank(u.component);
    return r >= 0 && r < 100;
  };

  for (const FnFacts& ff : m.fns) {
    const FileUnit& unit = (*m.files)[ff.file_index];
    if (!sim_path(unit)) continue;
    const FunctionInfo& fn = unit.functions[ff.fn_index];
    for (const CallSite& c : fn.calls) {
      if (c.method && kWaitMethods.contains(c.name)) {
        findings.push_back(Finding{
            std::string(kRuleFiberBlock), unit.path, c.line,
            "'" + (c.receiver.empty() ? c.name : c.receiver + "." + c.name) +
                "' blocks the OS thread; under the fiber scheduler this "
                "stalls every rank hosted on it — use the sim-aware wait "
                "or annotate '// collcheck: fiber-safe'"});
        continue;
      }
      if (!c.method && kSleepCalls.contains(c.name)) {
        findings.push_back(Finding{
            std::string(kRuleFiberBlock), unit.path, c.line,
            "'" + c.name +
                "' sleeps the OS thread; under the fiber scheduler this "
                "stalls every rank hosted on it — charge simulated time "
                "instead or annotate '// collcheck: fiber-safe'"});
        continue;
      }
      const bool blocking_comm =
          c.collective ||
          (c.method && (c.name == "recv_bytes" || c.name == "recv_value"));
      if (blocking_comm) {
        const std::vector<std::string>& held = ff.guards.held_at(c.tok);
        if (!held.empty()) {
          findings.push_back(Finding{
              std::string(kRuleFiberBlock), unit.path, c.line,
              "mutex '" + held.front() + "' is held across blocking '" +
                  c.name +
                  "'; when the blocked rank yields its fiber, any other "
                  "rank contending for the lock deadlocks the scheduler"});
        }
      }
    }
  }

  // thread_local storage is per-OS-thread; with many ranks per thread it
  // silently aliases state across ranks.
  std::set<std::pair<std::string, int>> seen;
  for (const FileUnit& u : *m.files) {
    if (!sim_path(u)) continue;
    for (const Token& t : u.lexed.tokens) {
      if (!is_ident(t, "thread_local")) continue;
      if (!seen.emplace(u.path, t.line).second) continue;
      findings.push_back(Finding{
          std::string(kRuleFiberTls), u.path, t.line,
          "thread_local state in a sim component aliases across all ranks "
          "hosted on one OS thread under the fiber scheduler; key the "
          "state by rank (or annotate '// collcheck: fiber-safe')"});
    }
  }
}

// ---------------------------------------------------------------------------
// --dump-schedules
// ---------------------------------------------------------------------------

std::string dump_schedules(const std::vector<FileUnit>& files) {
  Engine eng = build_engine(files);
  // Entry labels follow the public API names; the snapshot format is part
  // of the CI drift gate and must stay byte-stable for identical input.
  static constexpr std::pair<const char*, const char*> kEntries[] = {
      {"DUMP_OUTPUT", "dump_output"},
      {"checkpoint_now", "checkpoint_now"},
      {"recover_world", "recover_world"},
      {"repair_replicas", "repair_replicas"},
      {"pfs_restore", "pfs_restore"},
  };
  std::ostringstream out;
  out << "# collcheck --dump-schedules snapshot (format v1)\n"
      << "# Canonical collective schedule per public entry point, expanded\n"
      << "# inter-procedurally to depth " << kExpandDepth << ".  Notation:\n"
      << "#   a ; b          sequence\n"
      << "#   f{ ... }       inlined callee schedule ({...} at depth cap,\n"
      << "#                  @f on recursion)\n"
      << "#   alt[rank|cfg]  branch alternation (rank-divergent vs\n"
      << "#                  rank-invariant condition); '-' = empty branch\n"
      << "#   loop[rank|cfg] loop (rank-divergent vs invariant trip count)\n"
      << "#   try/catch<T>   unwind alternation; p2p: send/recv ops\n"
      << "# Schedule-equal alternations are collapsed; op-free subtrees\n"
      << "# are dropped.  Regenerate: scripts/analyze.sh --update-schedules\n";
  for (const auto& [label, fn_name] : kEntries) {
    out << "\n";
    const FnSched* fs = eng.canon(fn_name);
    if (fs == nullptr) {
      out << "entry " << label << " = " << fn_name
          << " (not found in scanned sources)\n";
      continue;
    }
    out << "entry " << label << " = " << fn_name << " (" << fs->unit->path
        << ":" << fs->fn->line << ")\n";
    const std::string sched =
        render_name(eng, fn_name, kExpandDepth, RenderMode::kDump);
    out << "  " << (sched.empty() ? "(no collective ops reachable)" : sched)
        << "\n";
  }
  return out.str();
}

}  // namespace collcheck
