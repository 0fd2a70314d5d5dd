// CC-RACE-* rules: lockset analysis over the shared class index.
//   CC-RACE-UNGUARDED  field guarded by a mutex at some sites, bare at
//                      others (mixed discipline => a data race window)
//   CC-RACE-OWNER      mutable per-entry state read before the
//                      rank-ownership filter in a condition (the PR-7
//                      FaultSchedule::at_point race shape)
//   CC-RACE-LOCKORDER  two mutexes of one class acquired in both orders
// See DESIGN.md §13 for the lockset model and its limits.
#include <algorithm>
#include <map>
#include <set>

#include "dataflow.hpp"
#include "taint.hpp"
#include "tokutil.hpp"

namespace collcheck {

namespace {

bool is_assign_op(const Token& t) {
  if (t.kind != TokKind::kPunct) return false;
  const std::string& s = t.text;
  return s == "=" || s == "+=" || s == "-=" || s == "*=" || s == "/=" ||
         s == "|=" || s == "&=" || s == "^=" || s == "++" || s == "--";
}

bool is_mutating_method(const std::string& name) {
  static const std::set<std::string> kMutators = {
      "push_back", "emplace_back", "pop_back", "clear",  "erase",
      "insert",    "resize",       "assign",   "swap",   "reset",
      "store",     "push",         "pop",      "emplace"};
  return kMutators.contains(name);
}

struct Access {
  const FileUnit* unit = nullptr;
  int line = 0;
  bool write = false;
  bool in_ctor = false;
  std::vector<std::string> held;  // effective lockset (lexical ∪ context)
};

// ---------------------------------------------------------------------------
// CC-RACE-UNGUARDED
// ---------------------------------------------------------------------------

void check_unguarded(const SharedModel& m, std::vector<Finding>& findings) {
  const std::vector<FileUnit>& files = *m.files;
  // (class, field) -> accesses across all member functions.
  std::map<std::pair<const ClassInfo*, std::string>, std::vector<Access>>
      accesses;
  for (const FnFacts& ff : m.fns) {
    if (ff.cls == nullptr || !ff.cls->has_mutex) continue;
    const FileUnit& unit = files[ff.file_index];
    const FunctionInfo& fn = unit.functions[ff.fn_index];
    const Toks& toks = unit.lexed.tokens;
    for (std::size_t i = fn.body_begin; i < fn.body_end; ++i) {
      const Token& t = toks[i];
      if (t.kind != TokKind::kIdent || is_cpp_keyword(t.text)) continue;
      const FieldInfo* field = ff.cls->field(t.text);
      if (field == nullptr || field->kind != FieldKind::kPlain) continue;
      // Only bare `field` / `this->field` accesses bind to this object;
      // `other.field` reads a different instance (documented miss).
      if (i > 0) {
        if (is_punct(toks[i - 1], ".")) continue;
        if (is_punct(toks[i - 1], "->") &&
            !(i >= 2 && is_ident(toks[i - 2], "this"))) {
          continue;
        }
      }
      if (i + 1 < fn.body_end && is_punct(toks[i + 1], "(")) continue;
      bool write = false;
      if (i + 1 < fn.body_end && is_assign_op(toks[i + 1]) &&
          !is_punct(toks[i + 1], "==")) {
        write = true;
      }
      if (i > 0 && (is_punct(toks[i - 1], "++") ||
                    is_punct(toks[i - 1], "--"))) {
        write = true;
      }
      if (!write && i + 2 < fn.body_end &&
          (is_punct(toks[i + 1], ".") || is_punct(toks[i + 1], "->")) &&
          toks[i + 2].kind == TokKind::kIdent &&
          is_mutating_method(toks[i + 2].text)) {
        write = true;
      }
      // `field[...] = ...` subscripted store.
      if (!write && i + 1 < fn.body_end && is_punct(toks[i + 1], "[")) {
        const std::size_t close = match_bracket(toks, i + 1);
        if (close + 1 < fn.body_end && is_assign_op(toks[close + 1])) {
          write = true;
        }
      }
      Access a;
      a.unit = &unit;
      a.line = t.line;
      a.write = write;
      a.in_ctor = ff.ctor_dtor;
      a.held = ff.guards.held_at(i);
      a.held.insert(a.held.end(), ff.ctx_held.begin(), ff.ctx_held.end());
      std::sort(a.held.begin(), a.held.end());
      a.held.erase(std::unique(a.held.begin(), a.held.end()), a.held.end());
      accesses[{ff.cls, field->name}].push_back(std::move(a));
    }
  }

  for (const auto& [key, accs] : accesses) {
    const auto& [cls, field_name] = key;
    bool write_outside_ctor = false;
    std::map<std::string, int> mutex_freq;
    for (const Access& a : accs) {
      if (a.in_ctor) continue;
      if (a.write) write_outside_ctor = true;
      for (const std::string& mu : a.held) ++mutex_freq[mu];
    }
    if (!write_outside_ctor || mutex_freq.empty()) continue;
    // The field's candidate lock: the mutex held at most accesses.
    std::string majority;
    int best = 0;
    for (const auto& [mu, n] : mutex_freq) {
      if (n > best) {
        best = n;
        majority = mu;
      }
    }
    std::set<std::pair<std::string, int>> reported;
    for (const Access& a : accs) {
      if (a.in_ctor) continue;
      if (std::find(a.held.begin(), a.held.end(), majority) !=
          a.held.end()) {
        continue;
      }
      if (!reported.insert({a.unit->path, a.line}).second) continue;
      findings.push_back(Finding{
          std::string(kRuleRaceUnguarded), a.unit->path, a.line,
          "field '" + field_name + "' of '" + cls->name +
              "' is guarded by '" + majority +
              "' at other sites but is " +
              (a.write ? std::string("written") : std::string("read")) +
              " here without it"});
    }
  }
}

// ---------------------------------------------------------------------------
// CC-RACE-OWNER
// ---------------------------------------------------------------------------

bool is_rankish(const std::string& s) {
  if (rank_source_idents().contains(s)) return true;
  return s.size() >= 4 && s.rfind("rank") == s.size() - 4;
}

// Split a condition span into top-level || / && operands.
std::vector<std::pair<std::size_t, std::size_t>> split_operands(
    const Toks& toks, std::size_t b, std::size_t e) {
  std::vector<std::pair<std::size_t, std::size_t>> out;
  int depth = 0;
  std::size_t begin = b;
  for (std::size_t i = b; i < e; ++i) {
    const Token& t = toks[i];
    if (is_punct(t, "(") || is_punct(t, "[") || is_punct(t, "{")) ++depth;
    else if (is_punct(t, ")") || is_punct(t, "]") || is_punct(t, "}")) --depth;
    else if (depth == 0 && (is_punct(t, "||") || is_punct(t, "&&"))) {
      out.emplace_back(begin, i);
      begin = i + 1;
    }
  }
  out.emplace_back(begin, e);
  return out;
}

// Does the operand compare `<root>.….rank` against a bare rank identifier?
// On success fills `root` with the head of the member chain.
bool is_rank_ownership_filter(const Toks& toks, std::size_t b, std::size_t e,
                              std::string& root) {
  bool has_cmp = false;
  bool has_bare_rank = false;
  std::size_t member_rank = kNpos;
  for (std::size_t i = b; i < e; ++i) {
    const Token& t = toks[i];
    if (is_punct(t, "==") || is_punct(t, "!=")) has_cmp = true;
    if (t.kind != TokKind::kIdent) continue;
    const bool after_member =
        i > b && (is_punct(toks[i - 1], ".") || is_punct(toks[i - 1], "->"));
    if (is_rankish(t.text)) {
      if (after_member) {
        member_rank = i;
      } else if (i + 1 >= e || !is_punct(toks[i + 1], "(")) {
        has_bare_rank = true;
      }
    }
  }
  if (!has_cmp || !has_bare_rank || member_rank == kNpos) return false;
  // Walk the member chain back to its head.
  std::size_t head = member_rank;
  while (head >= b + 2 &&
         (is_punct(toks[head - 1], ".") || is_punct(toks[head - 1], "->")) &&
         toks[head - 2].kind == TokKind::kIdent) {
    head -= 2;
  }
  root = toks[head].text;
  return true;
}

// Does the operand read a non-rank member of `root`?
int member_read_line(const Toks& toks, std::size_t b, std::size_t e,
                     const std::string& root) {
  for (std::size_t i = b; i + 2 < e; ++i) {
    if (!is_ident(toks[i], root)) continue;
    if (!is_punct(toks[i + 1], ".") && !is_punct(toks[i + 1], "->")) continue;
    // Walk to the chain tail.
    std::size_t k = i + 2;
    std::string tail;
    while (k < e && toks[k].kind == TokKind::kIdent) {
      tail = toks[k].text;
      if (k + 1 < e &&
          (is_punct(toks[k + 1], ".") || is_punct(toks[k + 1], "->"))) {
        k += 2;
        continue;
      }
      break;
    }
    if (!tail.empty() && !is_rankish(tail)) return toks[i].line;
  }
  return 0;
}

void check_owner_filter(const SharedModel& m,
                        std::vector<Finding>& findings) {
  const std::vector<FileUnit>& files = *m.files;
  for (const FnFacts& ff : m.fns) {
    if (ff.cls == nullptr || !ff.cls->has_mutex || ff.ctor_dtor) continue;
    const FileUnit& unit = files[ff.file_index];
    const FunctionInfo& fn = unit.functions[ff.fn_index];
    const Toks& toks = unit.lexed.tokens;
    for (std::size_t i = fn.body_begin; i + 1 < fn.body_end; ++i) {
      if (!is_ident(toks[i], "if") || !is_punct(toks[i + 1], "(")) continue;
      // Under a lock the scan is already exclusive: filter order is a
      // style question there, not a race.
      if (!ff.guards.held_at(i).empty() || !ff.ctx_held.empty()) continue;
      const std::size_t close = match_bracket(toks, i + 1);
      if (close >= fn.body_end) continue;
      const auto operands = split_operands(toks, i + 2, close);
      for (std::size_t oi = 0; oi < operands.size(); ++oi) {
        std::string root;
        if (!is_rank_ownership_filter(toks, operands[oi].first,
                                      operands[oi].second, root)) {
          continue;
        }
        for (std::size_t oj = 0; oj < oi; ++oj) {
          const int line = member_read_line(toks, operands[oj].first,
                                            operands[oj].second, root);
          if (line == 0) continue;
          findings.push_back(Finding{
              std::string(kRuleRaceOwner), unit.path, line,
              "condition reads mutable state of '" + root +
                  "' before the rank-ownership filter on '" + root +
                  ".…rank'; other ranks' threads may be mutating it — put "
                  "the rank filter first"});
        }
        break;  // one filter per condition is enough
      }
    }
  }
}

// ---------------------------------------------------------------------------
// CC-RACE-LOCKORDER
// ---------------------------------------------------------------------------

void check_lock_order(const SharedModel& m, std::vector<Finding>& findings) {
  const std::vector<FileUnit>& files = *m.files;
  struct Edge {
    std::string file;
    int line = 0;
  };
  // Per class: (held, acquired) -> first site.  Scoping edges to one
  // class keeps same-named mutexes of unrelated classes apart.
  std::map<const ClassInfo*, std::map<std::pair<std::string, std::string>,
                                      Edge>>
      edges;

  std::unordered_map<const ClassInfo*,
                     std::unordered_map<std::string, std::vector<std::size_t>>>
      members;
  for (std::size_t i = 0; i < m.fns.size(); ++i) {
    if (m.fns[i].cls == nullptr) continue;
    const FunctionInfo& fn =
        files[m.fns[i].file_index].functions[m.fns[i].fn_index];
    members[m.fns[i].cls][fn.name].push_back(i);
  }

  for (const FnFacts& ff : m.fns) {
    if (ff.cls == nullptr) continue;
    const FileUnit& unit = files[ff.file_index];
    const FunctionInfo& fn = unit.functions[ff.fn_index];
    auto& cls_edges = edges[ff.cls];
    const auto add_edge = [&](const std::string& held,
                              const std::string& acquired, int line) {
      if (held == acquired) return;
      cls_edges.try_emplace({held, acquired}, Edge{unit.path, line});
    };
    for (const LockAcquire& acq : ff.guards.acquires) {
      std::set<std::string> held(acq.held_before.begin(),
                                 acq.held_before.end());
      held.insert(ff.ctx_held.begin(), ff.ctx_held.end());
      for (const std::string& h : held) {
        for (const std::string& n : acq.mutexes) add_edge(h, n, acq.line);
      }
    }
    // Inter-procedural: a call made under a lock reaches the callee's
    // same-class acquisitions.
    const auto cls_it = members.find(ff.cls);
    if (cls_it == members.end()) continue;
    for (const CallSite& c : fn.calls) {
      if (c.method && c.receiver != "this") continue;
      if (!c.method && !c.qualifier.empty()) continue;
      const auto mem_it = cls_it->second.find(c.name);
      if (mem_it == cls_it->second.end()) continue;
      std::set<std::string> held;
      const auto& lex = ff.guards.held_at(c.tok);
      held.insert(lex.begin(), lex.end());
      held.insert(ff.ctx_held.begin(), ff.ctx_held.end());
      if (held.empty()) continue;
      for (const std::size_t callee : mem_it->second) {
        for (const std::string& n : m.fns[callee].locks_acquired) {
          if (held.contains(n)) continue;  // recursive re-entry, not order
          for (const std::string& h : held) add_edge(h, n, c.line);
        }
      }
    }
  }

  for (const auto& [cls, cls_edges] : edges) {
    for (const auto& [key, site] : cls_edges) {
      const auto& [a, b] = key;
      if (a >= b) continue;  // report each 2-cycle once, from (a<b)
      const auto rev = cls_edges.find({b, a});
      if (rev == cls_edges.end()) continue;
      findings.push_back(Finding{
          std::string(kRuleRaceLockOrder), site.file, site.line,
          "lock-order inversion in '" + cls->name + "': '" + a +
              "' is acquired before '" + b + "' here, but '" + b +
              "' before '" + a + "' at " + rev->second.file + ":" +
              std::to_string(rev->second.line)});
      findings.push_back(Finding{
          std::string(kRuleRaceLockOrder), rev->second.file,
          rev->second.line,
          "lock-order inversion in '" + cls->name + "': '" + b +
              "' is acquired before '" + a + "' here, but '" + a +
              "' before '" + b + "' at " + site.file + ":" +
              std::to_string(site.line)});
    }
  }
}

}  // namespace

void run_race_rules(const SharedModel& m, std::vector<Finding>& findings) {
  check_unguarded(m, findings);
  check_owner_filter(m, findings);
  check_lock_order(m, findings);
}

}  // namespace collcheck
