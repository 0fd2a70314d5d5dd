// Shared dataflow layer: class/field indexing, guard regions, and
// call-graph summaries.  See DESIGN.md §13 for the models and their
// documented false-negative limits.
#include "dataflow.hpp"

#include <algorithm>
#include <unordered_set>

#include "tokutil.hpp"

namespace collcheck {

namespace {

// Method names that block on a dead peer and therefore raise
// RankDeadError (or a RankFailure sibling) in simmpi's failure protocol.
const std::unordered_set<std::string>& throwing_method_names() {
  static const std::unordered_set<std::string> kNames = {
      "barrier", "win_create", "shrink",      "recv_bytes",
      "recv_value", "fence",   "fault_point",
  };
  return kNames;
}

bool is_guard_kind(const std::string& s) {
  return s == "scoped_lock" || s == "lock_guard" || s == "unique_lock" ||
         s == "shared_lock";
}

// The mutex key of a guard argument: the tail of its member chain
// (`ws.locks[...]` -> "locks", `fired_mu_` -> "fired_mu_").  Empty when
// the span does not read like a lockable.
std::string mutex_key(const Toks& toks, std::size_t b, std::size_t e) {
  std::string key;
  for (std::size_t i = b; i < e && i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind == TokKind::kIdent && !is_cpp_keyword(t.text)) {
      key = t.text;
      continue;
    }
    if (is_punct(t, "[")) {  // subscript: the chain tail came before it
      break;
    }
  }
  return key;
}

// ---------------------------------------------------------------------------
// Class/field index
// ---------------------------------------------------------------------------

void collect_fields(const Toks& toks, ClassInfo& ci) {
  std::size_t i = ci.body_begin;
  while (i < ci.body_end) {
    const Token& t = toks[i];
    if ((is_ident(t, "public") || is_ident(t, "private") ||
         is_ident(t, "protected")) &&
        i + 1 < ci.body_end && is_punct(toks[i + 1], ":")) {
      i += 2;
      continue;
    }
    if (is_ident(t, "using") || is_ident(t, "typedef") ||
        is_ident(t, "friend") || is_ident(t, "static_assert")) {
      i = stmt_end(toks, i, ci.body_end) + 1;
      continue;
    }
    if (is_ident(t, "struct") || is_ident(t, "class") ||
        is_ident(t, "enum") || is_ident(t, "union")) {
      // Nested type definition: skip its body (it is indexed as a class
      // of its own by the outer scan); a trailing declarator on the same
      // statement is a documented miss.
      std::size_t k = i + 1;
      while (k < ci.body_end && !is_punct(toks[k], "{") &&
             !is_punct(toks[k], ";")) {
        ++k;
      }
      if (k < ci.body_end && is_punct(toks[k], "{")) {
        k = match_bracket(toks, k);
      }
      i = stmt_end(toks, k, ci.body_end) + 1;
      continue;
    }
    if (is_ident(t, "template")) {
      if (i + 1 < ci.body_end && is_punct(toks[i + 1], "<")) {
        const std::size_t after = skip_template_args(toks, i + 1);
        i = after == kNpos ? i + 2 : after;
      } else {
        ++i;
      }
      continue;
    }
    if (t.kind == TokKind::kPunct) {
      ++i;
      continue;
    }

    // One member declaration: walk to its end, remembering whether a
    // depth-0 parameter list appeared (=> member function, not a field)
    // and where the declared name sits.
    const std::size_t decl_begin = i;
    bool saw_params = false;
    bool is_function = false;
    std::size_t name_tok = kNpos;
    std::size_t last_ident = kNpos;
    std::size_t k = i;
    while (k < ci.body_end) {
      const Token& u = toks[k];
      if (u.kind == TokKind::kIdent && !is_cpp_keyword(u.text)) {
        last_ident = k;
        ++k;
        continue;
      }
      if (is_punct(u, "<")) {
        const std::size_t after = skip_template_args(toks, k);
        k = after == kNpos ? k + 1 : after;
        continue;
      }
      if (is_punct(u, "(")) {
        if (!saw_params) name_tok = last_ident;
        saw_params = true;
        k = match_bracket(toks, k) + 1;
        continue;
      }
      if (is_punct(u, "[")) {
        if (name_tok == kNpos) name_tok = last_ident;
        k = match_bracket(toks, k) + 1;
        continue;
      }
      if (is_punct(u, "=")) {
        if (name_tok == kNpos) name_tok = last_ident;
        k = stmt_end(toks, k, ci.body_end);  // lands on the ";"
        continue;
      }
      if (is_punct(u, "{")) {
        if (saw_params) {  // inline member function body
          is_function = true;
          k = match_bracket(toks, k) + 1;
          break;
        }
        if (name_tok == kNpos) name_tok = last_ident;  // brace init
        k = match_bracket(toks, k) + 1;
        continue;
      }
      if (is_punct(u, ";")) break;
      ++k;
    }
    const std::size_t decl_end = k;
    if (!is_function && !saw_params) {
      if (name_tok == kNpos) name_tok = last_ident;
      if (name_tok != kNpos && name_tok > decl_begin) {
        FieldInfo f;
        f.name = toks[name_tok].text;
        f.line = toks[name_tok].line;
        FieldKind kind = FieldKind::kPlain;
        bool is_static = false;
        for (std::size_t q = decl_begin; q < name_tok; ++q) {
          if (toks[q].kind != TokKind::kIdent) continue;
          const std::string& s = toks[q].text;
          if (s == "static" || s == "constexpr") is_static = true;
          if (s == "const") kind = FieldKind::kConst;
          if (s.find("mutex") != std::string::npos) {
            kind = FieldKind::kMutex;
          } else if (s.find("atomic") != std::string::npos) {
            kind = FieldKind::kAtomic;
          } else if (s.find("condition_variable") != std::string::npos) {
            kind = FieldKind::kCondVar;
          }
        }
        if (!is_static) {
          f.kind = kind;
          if (kind == FieldKind::kMutex) ci.has_mutex = true;
          ci.fields.push_back(std::move(f));
        }
      }
    }
    if (decl_end < ci.body_end && is_punct(toks[decl_end], ";")) {
      i = decl_end + 1;
    } else {
      i = std::max(decl_end, i + 1);
    }
  }
}

void index_classes(const std::vector<FileUnit>& files,
                   std::vector<ClassInfo>& out) {
  for (std::size_t fi = 0; fi < files.size(); ++fi) {
    const Toks& toks = files[fi].lexed.tokens;
    for (std::size_t i = 0; i + 2 < toks.size(); ++i) {
      if (!is_ident(toks[i], "class") && !is_ident(toks[i], "struct")) {
        continue;
      }
      if (i > 0 && is_ident(toks[i - 1], "enum")) continue;  // enum class
      std::size_t j = i + 1;
      if (toks[j].kind != TokKind::kIdent || is_cpp_keyword(toks[j].text)) {
        continue;  // anonymous or `struct {` — not indexable by name
      }
      const std::string name = toks[j].text;
      ++j;
      if (j < toks.size() && is_ident(toks[j], "final")) ++j;
      // Definition requires "{" directly or after a base clause ":".
      std::size_t open = kNpos;
      if (j < toks.size() && is_punct(toks[j], "{")) {
        open = j;
      } else if (j < toks.size() && is_punct(toks[j], ":")) {
        for (std::size_t k = j + 1; k < toks.size() && k < j + 48; ++k) {
          if (is_punct(toks[k], "{")) {
            open = k;
            break;
          }
          if (is_punct(toks[k], ";") || is_punct(toks[k], "(") ||
              is_punct(toks[k], ")") || is_punct(toks[k], "=")) {
            break;
          }
        }
      }
      if (open == kNpos) continue;  // forward decl, variable decl, ...
      const std::size_t close = match_bracket(toks, open);
      if (close >= toks.size()) continue;
      ClassInfo ci;
      ci.name = name;
      ci.file_index = fi;
      ci.body_begin = open + 1;
      ci.body_end = close;
      ci.line = toks[i].line;
      collect_fields(toks, ci);
      out.push_back(std::move(ci));
    }
  }
}

// ---------------------------------------------------------------------------
// Guard regions
// ---------------------------------------------------------------------------

struct GuardVarState {
  std::string var;  // guard object name ("" for manual .lock() receivers)
  std::vector<std::string> mutexes;
  bool engaged = true;
};

std::vector<std::string> current_held(
    const std::vector<GuardVarState>& active) {
  std::vector<std::string> out;
  for (const GuardVarState& g : active) {
    if (!g.engaged) continue;
    for (const std::string& m : g.mutexes) out.push_back(m);
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

void set_held(GuardInfo& gi, std::size_t tok,
              const std::vector<GuardVarState>& active) {
  const std::size_t off = tok - gi.body_begin;
  if (off < gi.held.size()) gi.held[off] = current_held(active);
}

GuardVarState* find_active(std::vector<GuardVarState>& active,
                           const std::string& var) {
  for (auto it = active.rbegin(); it != active.rend(); ++it) {
    if (it->var == var) return &*it;
  }
  return nullptr;
}

// Recursive lexical walk: guards declared in a block die at its end;
// unlock()/lock() toggles on inherited guards are scoped to the block
// (balanced toggles, the common unlock-work-relock idiom, net out).
void walk_guards(const Toks& toks, std::size_t b, std::size_t e,
                 std::vector<GuardVarState> active, GuardInfo& gi) {
  std::size_t i = b;
  while (i < e) {
    const Token& t = toks[i];
    if (is_punct(t, "{")) {
      set_held(gi, i, active);
      const std::size_t close = std::min(match_bracket(toks, i), e);
      walk_guards(toks, i + 1, close, active, gi);
      if (close < e) set_held(gi, close, active);
      i = close + 1;
      continue;
    }
    set_held(gi, i, active);

    // Guard-object declaration:
    //   [std::] scoped_lock|lock_guard|unique_lock|shared_lock [<...>]
    //   var ( mutex [, mutex...] ) ;
    if (t.kind == TokKind::kIdent && is_guard_kind(t.text) &&
        (i == 0 || (!is_punct(toks[i - 1], ".") &&
                    !is_punct(toks[i - 1], "->")))) {
      std::size_t k = i + 1;
      if (k < e && is_punct(toks[k], "<")) {
        const std::size_t after = skip_template_args(toks, k);
        if (after != kNpos) k = after;
      }
      if (k + 1 < e && toks[k].kind == TokKind::kIdent &&
          !is_cpp_keyword(toks[k].text) && is_punct(toks[k + 1], "(")) {
        const std::size_t open = k + 1;
        const std::size_t close = match_bracket(toks, open);
        if (close < e) {
          GuardVarState gs;
          gs.var = toks[k].text;
          for (const auto& [ab, ae] : split_args(toks, open, close)) {
            if (span_mentions(toks, ab, ae, "defer_lock")) {
              gs.engaged = false;
              continue;
            }
            if (span_mentions(toks, ab, ae, "adopt_lock") ||
                span_mentions(toks, ab, ae, "try_to_lock")) {
              continue;
            }
            const std::string key = mutex_key(toks, ab, ae);
            if (!key.empty()) gs.mutexes.push_back(key);
          }
          if (!gs.mutexes.empty()) {
            gi.guard_vars.push_back(gs.var);
            if (gs.engaged) {
              LockAcquire acq;
              acq.mutexes = gs.mutexes;
              acq.held_before = current_held(active);
              acq.line = t.line;
              gi.acquires.push_back(std::move(acq));
            }
            active.push_back(std::move(gs));
          }
          for (std::size_t q = i; q <= close && q < e; ++q) {
            set_held(gi, q, active);
          }
          i = close + 1;
          continue;
        }
      }
    }

    // `X.lock()` / `X.unlock()`: toggles on declared guards, or manual
    // acquisition of a bare mutex.
    if (t.kind == TokKind::kIdent && !is_cpp_keyword(t.text) &&
        i + 3 < e &&
        (is_punct(toks[i + 1], ".") || is_punct(toks[i + 1], "->")) &&
        (is_ident(toks[i + 2], "lock") || is_ident(toks[i + 2], "unlock")) &&
        is_punct(toks[i + 3], "(")) {
      const bool locking = is_ident(toks[i + 2], "lock");
      GuardVarState* gs = find_active(active, t.text);
      if (gs != nullptr) {
        if (locking && !gs->engaged) {
          LockAcquire acq;
          acq.mutexes = gs->mutexes;
          gs->engaged = false;  // exclude self from held_before
          acq.held_before = current_held(active);
          acq.line = t.line;
          gi.acquires.push_back(std::move(acq));
        }
        gs->engaged = locking;
      } else {
        if (locking) {
          GuardVarState manual;
          manual.var = t.text;
          manual.mutexes = {t.text};
          LockAcquire acq;
          acq.mutexes = manual.mutexes;
          acq.held_before = current_held(active);
          acq.line = t.line;
          gi.acquires.push_back(std::move(acq));
          active.push_back(std::move(manual));
        } else {
          for (auto it = active.begin(); it != active.end(); ++it) {
            if (it->var == t.text) {
              active.erase(it);
              break;
            }
          }
        }
      }
      const std::size_t close = match_bracket(toks, i + 3);
      for (std::size_t q = i; q <= close && q < e; ++q) {
        set_held(gi, q, active);
      }
      i = std::min(close + 1, e);
      continue;
    }
    ++i;
  }
}

// Manual acquire/release pairs held across the body, for CC-EXC-RESOURCE.
// The pair table covers the repo's non-RAII protocols; a guard object is
// never a manual span (RAII releases it on unwind).
void collect_manual_spans(const Toks& toks, const FunctionInfo& fn,
                          GuardInfo& gi) {
  struct Pair {
    const char* acquire;
    const char* release;
    const char* what;
  };
  static constexpr Pair kPairs[] = {
      {"lock", "unlock", "mutex"},
      {"park", "unpark", "parked mailbox"},
      {"begin_update", "commit_update", "partially-committed update"},
  };
  struct Open {
    std::string var;
    const Pair* pair;
    std::size_t manual_index;
  };
  std::vector<Open> open;
  const auto is_guard_var = [&](const std::string& v) {
    return std::find(gi.guard_vars.begin(), gi.guard_vars.end(), v) !=
           gi.guard_vars.end();
  };
  for (std::size_t i = fn.body_begin; i + 3 < fn.body_end; ++i) {
    if (toks[i].kind != TokKind::kIdent || is_cpp_keyword(toks[i].text)) {
      continue;
    }
    if (!is_punct(toks[i + 1], ".") && !is_punct(toks[i + 1], "->")) {
      continue;
    }
    if (toks[i + 2].kind != TokKind::kIdent || !is_punct(toks[i + 3], "(")) {
      continue;
    }
    const std::string& method = toks[i + 2].text;
    for (const Pair& p : kPairs) {
      if (method == p.acquire) {
        if (is_guard_var(toks[i].text)) break;
        ManualSpan span;
        span.what = std::string(p.what) + " '" + toks[i].text + "' (." +
                    p.acquire + "())";
        span.open_tok = i;
        span.close_tok = fn.body_end;
        span.line = toks[i].line;
        open.push_back(Open{toks[i].text, &p, gi.manual.size()});
        gi.manual.push_back(std::move(span));
        break;
      }
      if (method == p.release) {
        for (auto it = open.rbegin(); it != open.rend(); ++it) {
          if (it->var == toks[i].text && it->pair == &p) {
            gi.manual[it->manual_index].close_tok = i;
            open.erase(std::next(it).base());
            break;
          }
        }
        break;
      }
    }
  }
}

GuardInfo compute_guards(const FileUnit& unit, const FunctionInfo& fn) {
  GuardInfo gi;
  gi.body_begin = fn.body_begin;
  gi.held.assign(fn.body_end > fn.body_begin ? fn.body_end - fn.body_begin
                                             : 0,
                 {});
  walk_guards(unit.lexed.tokens, fn.body_begin, fn.body_end, {}, gi);
  collect_manual_spans(unit.lexed.tokens, fn, gi);
  return gi;
}

// ---------------------------------------------------------------------------
// Throw-site and swallow detection
// ---------------------------------------------------------------------------

bool body_throws_rank_error(const Toks& toks, const FunctionInfo& fn) {
  bool has_throw = false;
  bool has_rank_err = false;
  for (std::size_t i = fn.body_begin; i < fn.body_end; ++i) {
    if (toks[i].kind != TokKind::kIdent) continue;
    const std::string& s = toks[i].text;
    if (s == "throw") has_throw = true;
    if (s.find("RankDead") != std::string::npos ||
        s.find("RankKilled") != std::string::npos ||
        s.find("RankFailure") != std::string::npos) {
      has_rank_err = true;
    }
  }
  return has_throw && has_rank_err;
}

// A catch-all handler with no rethrow makes the function a firewall: no
// exception of any kind escapes it, so the can-throw summary stops here.
bool body_swallows_all(const Toks& toks, const FunctionInfo& fn) {
  for (std::size_t i = fn.body_begin; i + 1 < fn.body_end; ++i) {
    if (!is_ident(toks[i], "catch") || !is_punct(toks[i + 1], "(")) continue;
    const std::size_t close = match_bracket(toks, i + 1);
    if (close >= fn.body_end) continue;
    bool catch_all = true;  // catch (...) — three "." puncts
    for (std::size_t k = i + 2; k < close; ++k) {
      if (!is_punct(toks[k], ".")) {
        catch_all = false;
        break;
      }
    }
    if (!catch_all || close == i + 2) continue;
    if (close + 1 >= fn.body_end || !is_punct(toks[close + 1], "{")) {
      continue;
    }
    const std::size_t bend = match_bracket(toks, close + 1);
    bool rethrows = false;
    for (std::size_t k = close + 2; k < bend && k < fn.body_end; ++k) {
      if (is_ident(toks[k], "throw") ||
          is_ident(toks[k], "rethrow_exception")) {
        rethrows = true;
        break;
      }
    }
    if (!rethrows) return true;
  }
  return false;
}

}  // namespace

// ---------------------------------------------------------------------------
// SharedModel
// ---------------------------------------------------------------------------

const FieldInfo* ClassInfo::field(const std::string& n) const {
  for (const FieldInfo& f : fields) {
    if (f.name == n) return &f;
  }
  return nullptr;
}

const std::vector<std::string>& GuardInfo::held_at(std::size_t tok) const {
  static const std::vector<std::string> kEmpty;
  const std::size_t off = tok - body_begin;
  return off < held.size() ? held[off] : kEmpty;
}

const FnFacts* SharedModel::facts(std::size_t file_index,
                                  std::size_t fn_index) const {
  for (const FnFacts& f : fns) {
    if (f.file_index == file_index && f.fn_index == fn_index) return &f;
  }
  return nullptr;
}

bool SharedModel::call_may_throw(const CallSite& c) const {
  if (is_rankdead_throw_site(c)) return true;
  if (c.qualifier == "std") return false;
  const auto it = throws_by_name.find(c.name);
  return it != throws_by_name.end() && it->second;
}

bool is_registry_collective(const CallSite& c) {
  // The registry shared with simmpi/obs/collprof via the X-macro, so
  // collcheck can never disagree with the runtime about what counts as a
  // collective.
  static const std::unordered_set<std::string> kNames = {
#define COLLREP_COLLECTIVE_OBS(Name, str) str,
#define COLLREP_COLLECTIVE_ALIAS(str) str,
#include "obs/collectives.def"
  };
  return !c.method && kNames.contains(c.name) &&
         (c.qualifier.empty() || c.qualifier == "simmpi");
}

bool is_rankdead_throw_site(const CallSite& c) {
  if (c.method) return throwing_method_names().contains(c.name);
  return is_registry_collective(c);
}

SharedModel build_shared_model(const std::vector<FileUnit>& files) {
  SharedModel m;
  m.files = &files;
  index_classes(files, m.classes);

  std::unordered_map<std::string, std::vector<const ClassInfo*>> by_name;
  for (const ClassInfo& c : m.classes) by_name[c.name].push_back(&c);

  for (std::size_t fi = 0; fi < files.size(); ++fi) {
    const FileUnit& unit = files[fi];
    for (std::size_t fj = 0; fj < unit.functions.size(); ++fj) {
      const FunctionInfo& fn = unit.functions[fj];
      FnFacts ff;
      ff.file_index = fi;
      ff.fn_index = fj;
      // Owning class: the innermost class span containing the name (inline
      // members), else the `X::` qualifier (out-of-line definitions, where
      // the class usually lives in a sibling header).
      for (const ClassInfo& c : m.classes) {
        if (c.file_index != fi) continue;
        if (fn.name_tok <= c.body_begin || fn.name_tok >= c.body_end) {
          continue;
        }
        if (ff.cls == nullptr || c.body_begin > ff.cls->body_begin) {
          ff.cls = &c;
        }
      }
      if (ff.cls == nullptr && !fn.class_name.empty()) {
        const auto it = by_name.find(fn.class_name);
        if (it != by_name.end()) ff.cls = it->second.front();
      }
      ff.ctor_dtor =
          ff.cls != nullptr && (fn.name == ff.cls->name || fn.is_dtor);
      ff.guards = compute_guards(unit, fn);
      ff.swallows_all = body_swallows_all(unit.lexed.tokens, fn);
      if (!ff.swallows_all) {
        ff.direct_throw = body_throws_rank_error(unit.lexed.tokens, fn);
        if (!ff.direct_throw) {
          for (const CallSite& c : fn.calls) {
            if (is_rankdead_throw_site(c)) {
              ff.direct_throw = true;
              break;
            }
          }
        }
      }
      for (const LockAcquire& a : ff.guards.acquires) {
        ff.locks_acquired.insert(a.mutexes.begin(), a.mutexes.end());
      }
      m.fns.push_back(std::move(ff));
    }
  }

  // --- name-collapsed RankDead reachability (same collapse as bearing) ---
  for (const FnFacts& ff : m.fns) {
    const FunctionInfo& fn = files[ff.file_index].functions[ff.fn_index];
    auto& b = m.throws_by_name[fn.name];
    b = b || ff.direct_throw;
  }
  for (int round = 0; round < 64; ++round) {
    bool changed = false;
    for (const FnFacts& ff : m.fns) {
      const FunctionInfo& fn = files[ff.file_index].functions[ff.fn_index];
      if (ff.swallows_all || m.throws_by_name[fn.name]) continue;
      for (const CallSite& c : fn.calls) {
        if (c.qualifier == "std") continue;
        const auto it = m.throws_by_name.find(c.name);
        if (it != m.throws_by_name.end() && it->second) {
          m.throws_by_name[fn.name] = true;
          changed = true;
          break;
        }
      }
    }
    if (!changed) break;
  }

  // --- caller-context lock propagation (the `*_locked` convention) ---
  // ctx_held(g) = intersection over same-class call sites of
  // (lexically held at the site ∪ ctx_held of the caller).  Starts empty
  // (safe under-approximation) and grows monotonically to a fixpoint.
  std::unordered_map<const ClassInfo*,
                     std::unordered_map<std::string, std::vector<std::size_t>>>
      members;  // class -> fn name -> indices into m.fns
  for (std::size_t i = 0; i < m.fns.size(); ++i) {
    const FnFacts& ff = m.fns[i];
    if (ff.cls == nullptr) continue;
    const FunctionInfo& fn = files[ff.file_index].functions[ff.fn_index];
    members[ff.cls][fn.name].push_back(i);
  }
  for (int round = 0; round < 8; ++round) {
    bool changed = false;
    // callee fn index -> list of held-sets observed this round
    std::unordered_map<std::size_t, std::vector<std::vector<std::string>>>
        sites;
    for (const FnFacts& caller : m.fns) {
      if (caller.cls == nullptr) continue;
      const FunctionInfo& fn =
          files[caller.file_index].functions[caller.fn_index];
      const auto cls_it = members.find(caller.cls);
      if (cls_it == members.end()) continue;
      for (const CallSite& c : fn.calls) {
        if (c.method && c.receiver != "this") continue;
        if (!c.method && !c.qualifier.empty()) continue;
        const auto mem_it = cls_it->second.find(c.name);
        if (mem_it == cls_it->second.end()) continue;
        std::vector<std::string> held = caller.guards.held_at(c.tok);
        held.insert(held.end(), caller.ctx_held.begin(),
                    caller.ctx_held.end());
        std::sort(held.begin(), held.end());
        held.erase(std::unique(held.begin(), held.end()), held.end());
        for (const std::size_t callee : mem_it->second) {
          sites[callee].push_back(held);
        }
      }
    }
    for (auto& [callee, held_sets] : sites) {
      std::vector<std::string> inter = held_sets.front();
      for (std::size_t s = 1; s < held_sets.size(); ++s) {
        std::vector<std::string> next;
        std::set_intersection(inter.begin(), inter.end(),
                              held_sets[s].begin(), held_sets[s].end(),
                              std::back_inserter(next));
        inter = std::move(next);
      }
      if (inter != m.fns[callee].ctx_held) {
        m.fns[callee].ctx_held = std::move(inter);
        changed = true;
      }
    }
    if (!changed) break;
  }

  // --- same-class transitive lock acquisition (for lock-order edges) ---
  for (int round = 0; round < 8; ++round) {
    bool changed = false;
    for (FnFacts& caller : m.fns) {
      if (caller.cls == nullptr) continue;
      const FunctionInfo& fn =
          files[caller.file_index].functions[caller.fn_index];
      const auto cls_it = members.find(caller.cls);
      if (cls_it == members.end()) continue;
      for (const CallSite& c : fn.calls) {
        if (c.method && c.receiver != "this") continue;
        if (!c.method && !c.qualifier.empty()) continue;
        const auto mem_it = cls_it->second.find(c.name);
        if (mem_it == cls_it->second.end()) continue;
        for (const std::size_t callee : mem_it->second) {
          for (const std::string& mu : m.fns[callee].locks_acquired) {
            if (caller.locks_acquired.insert(mu).second) changed = true;
          }
        }
      }
    }
    if (!changed) break;
  }

  return m;
}

}  // namespace collcheck
