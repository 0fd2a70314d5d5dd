#include "analyzer.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <unordered_map>
#include <unordered_set>

#include "dataflow.hpp"
#include "schedule.hpp"
#include "taint.hpp"
#include "tokutil.hpp"

namespace collcheck {

namespace {

namespace fs = std::filesystem;

// ---------------------------------------------------------------------------
// Layer DAG.  A file may include headers only from strictly lower-ranked
// components; equal-rank siblings may not include each other ("cross-layer").
// Harness components (tests, bench, ...) sit at the top and may include
// anything.  The diagram lives in DESIGN.md §10.
// ---------------------------------------------------------------------------
const std::unordered_map<std::string, int>& layer_table() {
  static const std::unordered_map<std::string, int> kRanks = {
      {"kernels", 0}, {"simtime", 0}, {"obs", 0},
      {"hash", 1},    {"ec", 1},
      {"simmpi", 2},
      {"chunk", 3},
      {"core", 4},
      {"fault", 5},   {"check", 5},   {"recover", 5},
      {"ftrt", 6},
      {"apps", 7},
      {"tools", 100}, {"tests", 100}, {"bench", 100}, {"examples", 100},
  };
  return kRanks;
}

// Identifier sets driving the token rules.  The collective call-name table
// is the shared registry behind is_registry_collective (dataflow.cpp).
const std::unordered_set<std::string>& wall_clock_idents() {
  static const std::unordered_set<std::string> kNames = {
      "system_clock", "steady_clock", "high_resolution_clock",
      "gettimeofday", "clock_gettime"};
  return kNames;
}

const std::unordered_set<std::string>& random_engine_idents() {
  static const std::unordered_set<std::string> kNames = {
      "mt19937", "mt19937_64", "minstd_rand", "minstd_rand0",
      "default_random_engine", "ranlux24", "ranlux48", "knuth_b"};
  return kNames;
}

const std::unordered_set<std::string>& banned_call_names() {
  static const std::unordered_set<std::string> kNames = {
      "strcpy", "strcat", "sprintf", "vsprintf", "gets", "strtok", "tmpnam"};
  return kNames;
}

// ---------------------------------------------------------------------------
// Function extraction (token helpers shared via tokutil.hpp)
// ---------------------------------------------------------------------------

// After the closing ")" of a parameter list, skip declaration qualifiers
// and decide whether a function body follows.  Returns the index of the
// body "{", or npos when this is not a definition.
[[nodiscard]] std::size_t find_body_brace(const Toks& toks,
                                          std::size_t after_params,
                                          bool allow_ctor_init) {
  constexpr std::size_t kNpos = static_cast<std::size_t>(-1);
  std::size_t k = after_params;
  const std::size_t n = toks.size();
  int guard = 0;
  while (k < n && ++guard < 64) {
    const Token& t = toks[k];
    if (is_punct(t, "{")) return k;
    if (is_punct(t, ";") || is_punct(t, "=") || is_punct(t, ",") ||
        is_punct(t, ")")) {
      return kNpos;  // declaration, = default/delete, or an expression
    }
    if (is_ident(t, "const") || is_ident(t, "override") ||
        is_ident(t, "final") || is_ident(t, "mutable") ||
        is_punct(t, "&") || is_punct(t, "&&")) {
      ++k;
      continue;
    }
    if (is_ident(t, "noexcept")) {
      ++k;
      if (k < n && is_punct(toks[k], "(")) k = match_bracket(toks, k) + 1;
      continue;
    }
    if (is_punct(t, "[") && k + 1 < n && is_punct(toks[k + 1], "[")) {
      // [[attribute]]
      std::size_t close = k;
      while (close < n && !is_punct(toks[close], "]")) ++close;
      k = close + 2;
      continue;
    }
    if (is_punct(t, "->")) {
      // Trailing return type: skip type tokens until "{" or ";".
      ++k;
      while (k < n && !is_punct(toks[k], "{") && !is_punct(toks[k], ";")) {
        if (is_punct(toks[k], "(")) {
          k = match_bracket(toks, k) + 1;
        } else {
          ++k;
        }
      }
      continue;
    }
    if (is_punct(t, ":") && allow_ctor_init) {
      // Constructor initializer list: ident(...) or ident{...} entries.
      ++k;
      while (k < n) {
        while (k < n && (toks[k].kind == TokKind::kIdent ||
                         is_punct(toks[k], "::") || is_punct(toks[k], "<") ||
                         is_punct(toks[k], ">") || is_punct(toks[k], ","))) {
          // "," between template args is rare here; entry commas are
          // handled below after the balanced group.
          if (is_punct(toks[k], ",")) break;
          ++k;
        }
        if (k >= n) return kNpos;
        if (is_punct(toks[k], "(") || is_punct(toks[k], "{")) {
          const bool was_brace = is_punct(toks[k], "{");
          const std::size_t close = match_bracket(toks, k);
          if (close >= n) return kNpos;
          k = close + 1;
          if (k < n && is_punct(toks[k], ",")) {
            ++k;
            continue;  // next initializer
          }
          if (k < n && is_punct(toks[k], "{")) return k;
          if (was_brace && k >= n) return kNpos;
          continue;
        }
        ++k;
      }
      return kNpos;
    }
    // Unrecognized token after the parameter list: not a definition.
    return kNpos;
  }
  return kNpos;
}

void extract_calls(const Toks& toks, FunctionInfo& fn) {
  for (std::size_t i = fn.body_begin; i < fn.body_end; ++i) {
    const Token& t = toks[i];
    if (t.kind != TokKind::kIdent || is_cpp_keyword(t.text)) continue;
    if (i + 1 >= toks.size()) continue;
    // `name(` directly, or `name<...>(` for explicit template arguments
    // (recv_value<int>(...)).
    std::size_t open = kNpos;
    if (is_punct(toks[i + 1], "(")) {
      open = i + 1;
    } else if (is_punct(toks[i + 1], "<")) {
      const std::size_t past = skip_template_args(toks, i + 1);
      if (past != kNpos && past < toks.size() && is_punct(toks[past], "(")) {
        open = past;
      }
    }
    if (open == kNpos) continue;
    CallSite call;
    call.name = t.text;
    call.line = t.line;
    call.tok = i;
    call.args_open = open;
    if (i > 0) {
      const Token& prev = toks[i - 1];
      if (is_punct(prev, ".") || is_punct(prev, "->")) {
        call.method = true;
        if (i >= 2 && toks[i - 2].kind == TokKind::kIdent) {
          call.receiver = toks[i - 2].text;
        }
      } else if (is_punct(prev, "::") && i >= 2 &&
                 toks[i - 2].kind == TokKind::kIdent) {
        call.qualifier = toks[i - 2].text;
      }
    }
    fn.calls.push_back(std::move(call));
  }
}

void extract_functions(FileUnit& unit) {
  const Toks& toks = unit.lexed.tokens;
  std::size_t i = 0;
  while (i + 1 < toks.size()) {
    const Token& t = toks[i];
    if (t.kind != TokKind::kIdent || is_cpp_keyword(t.text) ||
        !is_punct(toks[i + 1], "(")) {
      ++i;
      continue;
    }
    const std::size_t close = match_bracket(toks, i + 1);
    if (close >= toks.size()) {
      ++i;
      continue;
    }
    const std::size_t body = find_body_brace(toks, close + 1,
                                             /*allow_ctor_init=*/true);
    if (body == static_cast<std::size_t>(-1)) {
      ++i;
      continue;
    }
    const std::size_t body_end = match_bracket(toks, body);
    FunctionInfo fn;
    fn.name = t.text;
    fn.line = t.line;
    fn.name_tok = i;
    fn.body_begin = body + 1;
    fn.body_end = std::min(body_end, toks.size());
    // Destructors and out-of-line `X::f` qualification.
    std::size_t q = i;
    if (i >= 1 && is_punct(toks[i - 1], "~")) {
      fn.is_dtor = true;
      fn.class_name = t.text;
      q = i - 1;
    }
    if (q >= 2 && is_punct(toks[q - 1], "::") &&
        toks[q - 2].kind == TokKind::kIdent) {
      fn.class_name = toks[q - 2].text;
    }
    // Explicit noexcept between the parameter list and the body
    // (noexcept(false) opts back out).
    for (std::size_t k = close + 1; k < body; ++k) {
      if (!is_ident(toks[k], "noexcept")) continue;
      fn.is_noexcept = true;
      if (k + 1 < body && is_punct(toks[k + 1], "(")) {
        const std::size_t nc = match_bracket(toks, k + 1);
        for (std::size_t a = k + 2; a < nc; ++a) {
          if (is_ident(toks[a], "false")) fn.is_noexcept = false;
        }
      }
      break;
    }
    extract_calls(toks, fn);
    const std::size_t resume = fn.body_end + 1;
    unit.functions.push_back(std::move(fn));
    i = resume;
  }
}

// ---------------------------------------------------------------------------
// Per-function rank taint, RMA epochs and collective classification (rank
// taint engine in taint.hpp; the divergence rules live in schedule.cpp)
// ---------------------------------------------------------------------------

enum class WinState { kUnopened, kOpen, kNoSucceed };

void analyze_function(const FileUnit& unit, FunctionInfo& fn,
                      std::vector<Finding>& findings) {
  const Toks& toks = unit.lexed.tokens;

  // ---- rank taint (the one run per function) ----
  fn.taint = rank_taint(toks, fn.body_begin, fn.body_end);
  for (CallSite& c : fn.calls) c.rank_conditional = fn.taint.at_tok(c.tok);

  // Variables whose value depends on which rank executes (assigned under
  // rank-conditional control flow) feed CC-P2P-TAGDIV; `me = comm.rank()`
  // aliases feed CC-P2P-SELF.
  for (std::size_t i = fn.body_begin; i + 1 < fn.body_end; ++i) {
    const Token& t = toks[i];
    if (t.kind != TokKind::kIdent || is_cpp_keyword(t.text)) continue;
    if (i > 0 && (is_punct(toks[i - 1], ".") || is_punct(toks[i - 1], "->"))) {
      continue;
    }
    if (is_punct(toks[i + 1], "=")) {
      if (fn.taint.at_tok(i)) fn.divergent_vars.push_back(t.text);
      // `alias = R.rank();` / `R.world_rank();`
      if (i + 7 < fn.body_end && toks[i + 2].kind == TokKind::kIdent &&
          is_punct(toks[i + 3], ".") &&
          (is_ident(toks[i + 4], "rank") ||
           is_ident(toks[i + 4], "world_rank")) &&
          is_punct(toks[i + 5], "(") && is_punct(toks[i + 6], ")") &&
          is_punct(toks[i + 7], ";")) {
        fn.rank_aliases.emplace_back(t.text, toks[i + 2].text);
      }
    }
  }

  // ---- RMA epoch discipline ----
  // Window variables: `X = [comm.]win_create(...)` and `Window X` params
  // or locals.  A put on an Unopened window is flagged for review; a put
  // after fence(kFenceNoSucceed) is an epoch violation.
  std::unordered_map<std::string, WinState> windows;
  // Scan from the top of the file so parameter declarations (which sit
  // just before body_begin) are seen too; the ownership check below keeps
  // other functions' declarations out.
  for (std::size_t i = 0; i + 1 < fn.body_end; ++i) {
    if (i >= toks.size()) break;
    if (!is_ident(toks[i], "Window")) continue;
    if (i + 1 >= fn.body_end) break;
    std::size_t v = i + 1;
    while (v < fn.body_end &&
           (is_punct(toks[v], "&") || is_punct(toks[v], "*"))) {
      ++v;
    }
    if (v < fn.body_end && toks[v].kind == TokKind::kIdent &&
        !is_cpp_keyword(toks[v].text)) {
      // Only consider declarations belonging to this function: the token
      // must sit inside the body or just before it (parameter list).
      if (v >= fn.body_begin && v < fn.body_end) {
        windows.emplace(toks[v].text, WinState::kUnopened);
      } else if (fn.body_begin >= 2 && v < fn.body_begin &&
                 toks[v].line >= toks[fn.body_begin - 1].line - 8 &&
                 toks[v].line <= toks[fn.body_begin].line) {
        windows.emplace(toks[v].text, WinState::kUnopened);
      }
    }
  }

  for (std::size_t i = fn.body_begin; i < fn.body_end; ++i) {
    const Token& t = toks[i];
    if (t.kind != TokKind::kIdent) continue;
    if (t.text == "win_create" && i >= 1 &&
        (is_punct(toks[i - 1], ".") || is_punct(toks[i - 1], "->"))) {
      // Walk back over `receiver . win_create` to `X =`.
      std::size_t back = i - 1;
      if (back >= 1 && toks[back - 1].kind == TokKind::kIdent) --back;
      if (back >= 1 && is_punct(toks[back - 1], "=")) {
        if (back >= 2 && toks[back - 2].kind == TokKind::kIdent) {
          windows[toks[back - 2].text] = WinState::kOpen;
        }
      }
      continue;
    }
    if ((t.text == "fence" || t.text == "put") && i >= 2 &&
        (is_punct(toks[i - 1], ".") || is_punct(toks[i - 1], "->")) &&
        toks[i - 2].kind == TokKind::kIdent) {
      const std::string& var = toks[i - 2].text;
      const auto it = windows.find(var);
      if (it == windows.end()) continue;  // not a tracked window
      if (i + 1 >= toks.size() || !is_punct(toks[i + 1], "(")) continue;
      const std::size_t close = match_bracket(toks, i + 1);
      if (t.text == "put") {
        if (it->second == WinState::kNoSucceed) {
          findings.push_back(Finding{
              std::string(kRuleRmaNoSucceed), unit.path, t.line,
              "put on window '" + var +
                  "' after fence(kFenceNoSucceed) closed its last access "
                  "epoch"});
        } else if (it->second == WinState::kUnopened) {
          findings.push_back(Finding{
              std::string(kRuleRmaNoEpoch), unit.path, t.line,
              "put on window '" + var +
                  "' with no dominating win_create/fence in this function "
                  "(epoch discipline cannot be verified locally)"});
        }
        continue;
      }
      // fence: classify the flags argument.
      bool nosucceed = false;
      bool recognized = true;
      if (close == i + 2) {
        // fence() — reopens the epoch.
      } else if (close == i + 3 && toks[i + 2].kind == TokKind::kNumber &&
                 toks[i + 2].text == "0") {
        // fence(0)
      } else {
        recognized = false;
        for (std::size_t a = i + 2; a < close; ++a) {
          if (toks[a].kind == TokKind::kIdent &&
              toks[a].text.rfind("kFence", 0) == 0) {
            recognized = true;
            if (toks[a].text == "kFenceNoSucceed") nosucceed = true;
          }
        }
      }
      if (!recognized) {
        findings.push_back(Finding{
            std::string(kRuleRmaFlag), unit.path, t.line,
            "fence flags on window '" + var +
                "' are not 0 or a named kFence* constant"});
      }
      it->second = nosucceed ? WinState::kNoSucceed : WinState::kOpen;
    }
  }

  // ---- collective classification ----
  for (CallSite& c : fn.calls) {
    c.collective =
        is_registry_collective(c) ||
        (c.method && (c.name == "barrier" || c.name == "win_create")) ||
        (c.method && (c.name == "fence" || c.name == "free") &&
         windows.contains(c.receiver));
  }
}

// ---------------------------------------------------------------------------
// File-scope token rules (determinism, banned functions)
// ---------------------------------------------------------------------------

void scan_tokens(const FileUnit& unit, std::vector<Finding>& findings) {
  const bool sim_path = layer_rank(unit.component) >= 0 &&
                        layer_rank(unit.component) < 100;
  const Toks& toks = unit.lexed.tokens;
  std::set<std::pair<std::string, int>> seen;  // (rule, line) dedupe
  const auto emit = [&](std::string_view rule, int line, std::string msg) {
    if (!seen.emplace(std::string(rule), line).second) return;
    findings.push_back(Finding{std::string(rule), unit.path, line,
                               std::move(msg)});
  };

  for (std::size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind != TokKind::kIdent) continue;

    if (sim_path) {
      if (wall_clock_idents().contains(t.text)) {
        emit(kRuleNondetClock, t.line,
             "wall-clock source '" + t.text +
                 "' in a sim path; use the simulated clock "
                 "(Comm::clock/charge) so runs stay deterministic");
        continue;
      }
      if (t.text == "random_device") {
        emit(kRuleNondetRand, t.line,
             "std::random_device is nondeterministic; derive seeds from "
             "config or rank instead");
        continue;
      }
      if ((t.text == "rand" || t.text == "srand") && i + 1 < toks.size() &&
          is_punct(toks[i + 1], "(") &&
          (i == 0 || (!is_punct(toks[i - 1], ".") &&
                      !is_punct(toks[i - 1], "->")))) {
        emit(kRuleNondetRand, t.line,
             "'" + t.text + "' uses hidden global state; use a seeded "
             "<random> engine");
        continue;
      }
      if (random_engine_idents().contains(t.text) && i + 2 < toks.size() &&
          toks[i + 1].kind == TokKind::kIdent &&
          !is_cpp_keyword(toks[i + 1].text) && is_punct(toks[i + 2], ";")) {
        emit(kRuleNondetRand, t.line,
             "'" + toks[i + 1].text + "' is a default-constructed " + t.text +
                 "; seed it deterministically");
        continue;
      }
    }

    if (banned_call_names().contains(t.text) && i + 1 < toks.size() &&
        is_punct(toks[i + 1], "(") &&
        (i == 0 || (!is_punct(toks[i - 1], ".") &&
                    !is_punct(toks[i - 1], "->")))) {
      emit(kRuleBannedFunc, t.line,
           "'" + t.text + "' is banned (unbounded write / hidden state); "
           "use the std::string/span-based equivalents");
    }
  }
}

// ---------------------------------------------------------------------------
// Layering
// ---------------------------------------------------------------------------

void check_layering(const FileUnit& unit, std::vector<Finding>& findings) {
  const int from_rank = layer_rank(unit.component);
  if (from_rank >= 100) return;  // harness layers include freely
  if (from_rank < 0) {
    // A src/ subdirectory the DAG does not know.  Surface it so the table
    // cannot silently rot as the tree grows.
    if (unit.path.rfind("src/", 0) == 0 ||
        unit.path.find("/src/") != std::string::npos) {
      findings.push_back(Finding{
          std::string(kRuleLayerUnknown), unit.path, 1,
          "component '" + unit.component +
              "' is not in the collcheck layer table; add it to the DAG in "
              "tools/collcheck/analyzer.cpp and DESIGN.md §10"});
    }
    return;
  }
  for (const IncludeDirective& inc : unit.lexed.includes) {
    if (inc.angled) continue;
    const auto slash = inc.path.find('/');
    if (slash == std::string::npos) continue;  // same-directory include
    const std::string target = inc.path.substr(0, slash);
    const auto it = layer_table().find(target);
    if (it == layer_table().end()) continue;
    const int to_rank = it->second;
    if (target == unit.component) continue;
    if (to_rank > from_rank) {
      findings.push_back(Finding{
          std::string(kRuleLayerUp), unit.path, inc.line,
          "layer '" + unit.component + "' (rank " +
              std::to_string(from_rank) + ") includes upward from '" +
              target + "' (rank " + std::to_string(to_rank) +
              "); move the dependency down or the file up"});
    } else if (to_rank == from_rank) {
      findings.push_back(Finding{
          std::string(kRuleLayerCross), unit.path, inc.line,
          "sibling layers '" + unit.component + "' and '" + target +
              "' (both rank " + std::to_string(from_rank) +
              ") must not include each other"});
    }
  }
}

// ---------------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------------

void apply_inline_allows(const std::vector<FileUnit>& files,
                         std::vector<Finding>& findings) {
  std::unordered_map<std::string, const FileUnit*> by_path;
  for (const FileUnit& u : files) by_path.emplace(u.path, &u);
  std::erase_if(findings, [&](const Finding& f) {
    const auto it = by_path.find(f.file);
    if (it == by_path.end()) return false;
    const auto& allows = it->second->lexed.allows;
    for (const int line : {f.line, f.line - 1}) {
      const auto a = allows.find(line);
      if (a != allows.end() &&
          (a->second.contains(f.rule) || a->second.contains("*"))) {
        return true;
      }
    }
    return false;
  });
}

}  // namespace

const std::vector<RuleInfo>& rule_catalog() {
  static const std::vector<RuleInfo> kCatalog = {
      {kRuleCollDiv,
       "collective or fence reachable only under rank-dependent control flow",
       "hoist the collective out of the rank branch, or make every rank "
       "execute it"},
      {kRuleCollDivCall,
       "call into a collective-bearing function under rank-dependent "
       "control flow",
       "all ranks must reach the callee; restructure so the call is "
       "unconditional"},
      {kRuleRmaNoEpoch,
       "window put with no dominating epoch-opening win_create/fence in the "
       "same function",
       "open the access epoch locally, or document the caller contract and "
       "baseline the site"},
      {kRuleRmaNoSucceed,
       "window put after fence(kFenceNoSucceed) declared the final epoch",
       "drop the kFenceNoSucceed flag on the preceding fence, or move the "
       "put before it"},
      {kRuleRmaFlag,
       "fence flags expression is not 0 or a named kFence* constant",
       "use the named constants from simmpi/check_hook.hpp"},
      {kRuleLayerUp, "include edge points up the layer DAG",
       "move the dependency to a lower layer or the file to a higher one"},
      {kRuleLayerCross, "include edge between same-rank sibling layers",
       "siblings must stay independent; factor shared code into a lower "
       "layer"},
      {kRuleLayerUnknown, "src component missing from the layer table",
       "register the component's rank in tools/collcheck/analyzer.cpp"},
      {kRuleNondetClock, "wall-clock source in a simulation path",
       "use the simulated clock (Comm::clock/charge)"},
      {kRuleNondetRand, "nondeterministic randomness in a simulation path",
       "seed a <random> engine from config or rank"},
      {kRuleBannedFunc, "banned C string/stateful function",
       "use std::string, std::span, or snprintf"},
      {kRuleRaceUnguarded,
       "field guarded by a mutex at other sites is accessed without it",
       "take the class's majority lock here, make the field atomic, or "
       "document single-threaded ownership with an allow comment"},
      {kRuleRaceOwner,
       "mutable state read before the rank-ownership filter in a shared "
       "scan loop",
       "put the rank filter first so other ranks' entries are never "
       "touched (the FaultSchedule::at_point pattern)"},
      {kRuleRaceLockOrder,
       "two mutexes are acquired in opposite orders at different sites",
       "pick one global order (or use std::scoped_lock with both) to rule "
       "out deadlock"},
      {kRuleExcNoexcept,
       "noexcept function (or destructor) can reach a RankDeadError throw "
       "site",
       "drop noexcept, wrap the body in try/catch, or route through a "
       "swallowing release() helper"},
      {kRuleExcResource,
       "manually-acquired resource held across a call that can throw "
       "RankDeadError",
       "use an RAII guard (scoped_lock/unique_lock) or release before the "
       "throwing call"},
      {kRuleExcSwallow,
       "catch block swallows RankDeadError without rethrow or recovery",
       "rethrow, call shrink()/recover_world(), or record the death before "
       "continuing"},
      {kRuleP2pUnmatched,
       "send/recv tag with no static counterpart anywhere in the scanned "
       "sources",
       "add the matching side, or allow-list intentional orphans (leak "
       "tests)"},
      {kRuleP2pSelf, "recv from the caller's own rank",
       "a rank cannot serve its own recv; route self-data through a local "
       "variable instead"},
      {kRuleP2pTagDiv,
       "p2p tag expression diverges across ranks",
       "compute tags from protocol constants and the peer id, never from "
       "rank-conditional state"},
      {kRuleSchedDiv,
       "rank-dependent branching yields different collective schedules",
       "make both branches execute the same collective sequence, or hoist "
       "the collectives out of the rank-dependent region"},
      {kRuleSchedOrder,
       "rank-dependent branches execute the same collectives in different "
       "order",
       "fix one canonical op order; ranks taking different branches will "
       "cross-match collectives otherwise"},
      {kRuleSchedLoop,
       "collective inside a loop whose trip count is rank-dependent",
       "derive the trip count from config or an agreed value (allreduce it "
       "first), never from the local rank"},
      {kRuleSchedUnwind,
       "collective on the RankDeadError unwind path before "
       "shrink/recover_world",
       "the handler must hand control to the failure protocol first; only "
       "shrink()/recover_world() re-align survivor schedules"},
      {kRuleFiberBlock,
       "OS-blocking primitive (cv wait, sleep, lock held across a blocking "
       "op) in a sim component",
       "use sim-aware waits/charged time, or annotate the line with "
       "'// collcheck: fiber-safe' if it runs outside rank context"},
      {kRuleFiberTls,
       "thread_local state in a sim component",
       "key the state by rank id; thread_local aliases across ranks once "
       "they share OS threads (or annotate '// collcheck: fiber-safe')"},
  };
  return kCatalog;
}

int layer_rank(const std::string& component) {
  const auto it = layer_table().find(component);
  return it == layer_table().end() ? -1 : it->second;
}

std::string component_of(const std::string& rel_path) {
  // Last "src/<comp>/" segment wins (fixture corpora embed their own src/
  // trees); otherwise the first path segment when it names a harness layer.
  std::vector<std::string> parts;
  std::string cur;
  for (const char c : rel_path) {
    if (c == '/') {
      parts.push_back(cur);
      cur.clear();
    } else {
      cur.push_back(c);
    }
  }
  parts.push_back(cur);
  for (std::size_t i = parts.size(); i-- > 1;) {
    if (parts[i - 1] == "src" && i < parts.size()) {
      return parts[i];
    }
  }
  if (!parts.empty() && layer_table().contains(parts.front())) {
    return parts.front();
  }
  return {};
}

AnalysisResult analyze_sources(
    std::vector<std::pair<std::string, std::string>> sources) {
  AnalysisResult result;
  result.files.reserve(sources.size());
  for (auto& [path, content] : sources) {
    FileUnit unit;
    unit.path = path;
    unit.component = component_of(path);
    unit.lexed = lex(content);
    extract_functions(unit);
    result.files.push_back(std::move(unit));
  }
  for (FileUnit& unit : result.files) {
    check_layering(unit, result.findings);
    scan_tokens(unit, result.findings);
    for (FunctionInfo& fn : unit.functions) {
      analyze_function(unit, fn, result.findings);
    }
  }
  const SharedModel model = build_shared_model(result.files);
  run_race_rules(model, result.findings);
  run_exc_rules(model, result.findings);
  run_p2p_rules(model, result.findings);
  run_schedule_rules(result.files, result.findings);
  run_fiber_rules(model, result.findings);
  apply_inline_allows(result.files, result.findings);
  std::sort(result.findings.begin(), result.findings.end(),
            [](const Finding& a, const Finding& b) {
              return std::tie(a.file, a.line, a.rule) <
                     std::tie(b.file, b.line, b.rule);
            });
  result.findings.erase(
      std::unique(result.findings.begin(), result.findings.end(),
                  [](const Finding& a, const Finding& b) {
                    return a.file == b.file && a.line == b.line &&
                           a.rule == b.rule;
                  }),
      result.findings.end());
  return result;
}

AnalysisResult analyze_paths(const std::vector<std::string>& paths,
                             const std::string& repo_root,
                             const AnalyzerOptions& options) {
  const fs::path root = fs::weakly_canonical(repo_root);
  std::vector<std::pair<std::string, std::string>> sources;

  const auto is_source = [](const fs::path& p) {
    const auto ext = p.extension().string();
    return ext == ".cpp" || ext == ".hpp" || ext == ".h" || ext == ".cc";
  };
  const auto skip_dir = [&](const fs::path& p) {
    const auto name = p.filename().string();
    return name == ".git" || name.rfind("build", 0) == 0 ||
           (!options.include_fixtures && name == "fixtures");
  };
  const auto add_file = [&](const fs::path& p) {
    std::string rel = fs::weakly_canonical(p).lexically_relative(root)
                          .generic_string();
    if (rel.empty() || rel.rfind("..", 0) == 0) {
      rel = p.generic_string();
    }
    // The recursion prune handles fixtures dirs found while walking, but a
    // fixtures dir passed directly as an argument arrives here; filter on
    // the path itself so a production scan can never ingest the corpus.
    if (!options.include_fixtures &&
        ("/" + rel + "/").find("/fixtures/") != std::string::npos) {
      return;
    }
    std::ifstream in(p, std::ios::binary);
    if (!in) return;
    std::ostringstream ss;
    ss << in.rdbuf();
    sources.emplace_back(std::move(rel), ss.str());
  };

  for (const std::string& raw : paths) {
    fs::path p(raw);
    if (p.is_relative()) p = root / p;
    std::error_code ec;
    if (fs::is_directory(p, ec)) {
      fs::recursive_directory_iterator it(
          p, fs::directory_options::skip_permission_denied, ec);
      const fs::recursive_directory_iterator end;
      while (it != end) {
        if (it->is_directory(ec) && skip_dir(it->path())) {
          it.disable_recursion_pending();
        } else if (it->is_regular_file(ec) && is_source(it->path())) {
          add_file(it->path());
        }
        it.increment(ec);
        if (ec) break;
      }
    } else if (fs::is_regular_file(p, ec) && is_source(p)) {
      add_file(p);
    }
  }
  std::sort(sources.begin(), sources.end());
  return analyze_sources(std::move(sources));
}

}  // namespace collcheck
