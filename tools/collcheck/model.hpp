// collcheck data model: rules, findings, per-file and per-function
// summaries.  See DESIGN.md §10 for the rule catalog and the layer DAG
// this encodes.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <unordered_set>
#include <vector>

#include "lexer.hpp"

namespace collcheck {

// Rule identifiers.  Stable strings: they appear in baselines, inline
// allow comments, SARIF output, and the test suite.
inline constexpr std::string_view kRuleCollDiv = "CC-COLL-DIV";
inline constexpr std::string_view kRuleCollDivCall = "CC-COLL-DIV-CALL";
inline constexpr std::string_view kRuleRmaNoEpoch = "CC-RMA-NOEPOCH";
inline constexpr std::string_view kRuleRmaNoSucceed = "CC-RMA-NOSUCCEED";
inline constexpr std::string_view kRuleRmaFlag = "CC-RMA-FLAG";
inline constexpr std::string_view kRuleLayerUp = "CC-LAYER-UP";
inline constexpr std::string_view kRuleLayerCross = "CC-LAYER-CROSS";
inline constexpr std::string_view kRuleLayerUnknown = "CC-LAYER-UNKNOWN";
inline constexpr std::string_view kRuleNondetClock = "CC-NONDET-CLOCK";
inline constexpr std::string_view kRuleNondetRand = "CC-NONDET-RAND";
inline constexpr std::string_view kRuleBannedFunc = "CC-BANNED-FUNC";
// v2 families (DESIGN.md §13): lockset races, failure-unwind safety, and
// static p2p protocol matching.
inline constexpr std::string_view kRuleRaceUnguarded = "CC-RACE-UNGUARDED";
inline constexpr std::string_view kRuleRaceOwner = "CC-RACE-OWNER";
inline constexpr std::string_view kRuleRaceLockOrder = "CC-RACE-LOCKORDER";
inline constexpr std::string_view kRuleExcNoexcept = "CC-EXC-NOEXCEPT";
inline constexpr std::string_view kRuleExcResource = "CC-EXC-RESOURCE";
inline constexpr std::string_view kRuleExcSwallow = "CC-EXC-SWALLOW";
inline constexpr std::string_view kRuleP2pUnmatched = "CC-P2P-UNMATCHED";
inline constexpr std::string_view kRuleP2pSelf = "CC-P2P-SELF";
inline constexpr std::string_view kRuleP2pTagDiv = "CC-P2P-TAGDIV";
// v3 families (DESIGN.md §15): whole-program collective schedules and the
// fiber-readiness audit for the coroutine-scheduler refactor.
inline constexpr std::string_view kRuleSchedDiv = "CC-SCHED-DIV";
inline constexpr std::string_view kRuleSchedOrder = "CC-SCHED-ORDER";
inline constexpr std::string_view kRuleSchedLoop = "CC-SCHED-LOOP";
inline constexpr std::string_view kRuleSchedUnwind = "CC-SCHED-UNWIND";
inline constexpr std::string_view kRuleFiberBlock = "CC-FIBER-BLOCK";
inline constexpr std::string_view kRuleFiberTls = "CC-FIBER-TLS";

struct RuleInfo {
  std::string_view id;
  std::string_view summary;
  std::string_view hint;
};

// The full catalog, in reporting order.
[[nodiscard]] const std::vector<RuleInfo>& rule_catalog();

struct Finding {
  std::string rule;
  std::string file;  // repo-root-relative path
  int line = 0;
  std::string message;
};

// One call site inside a function body.
struct CallSite {
  std::string name;       // callee identifier
  std::string receiver;   // `x` in `x.name(...)`, empty for free calls
  std::string qualifier;  // `ns` in `ns::name(...)`, empty otherwise
  bool method = false;    // preceded by `.` or `->`
  int line = 0;
  bool rank_conditional = false;  // under rank-derived control flow
  // The one collective predicate, set by analyze_function: a registry free
  // call, a barrier/win_create method, or fence/free on a window the RMA
  // pass tracks.  Every schedule, divergence and fiber rule reads it.
  bool collective = false;
  std::size_t tok = 0;        // token index of the callee name
  std::size_t args_open = 0;  // token index of the "(" opening the args
};

// Rank taint of one function body: rank_taint (taint.hpp) computes it
// once per function in analyze_function, and the schedule pass reads it.
struct RankTaint {
  std::unordered_set<std::string> vars;  // assigned from rank-derived values
  std::size_t base = 0;                  // token index of at[0]
  // One flag per body token: under rank-dependent control flow.
  // Byte-valued rather than vector<bool>: the bit-proxy specialization
  // trips GCC's -Wnull-dereference inside libstdc++ when assign() is
  // inlined.
  std::vector<unsigned char> at;

  [[nodiscard]] bool at_tok(std::size_t tok) const {
    return tok >= base && tok - base < at.size() && at[tok - base] != 0;
  }
};

// Per-function summary extracted by the parser.
struct FunctionInfo {
  std::string name;       // unqualified name (last identifier)
  int line = 0;           // line of the opening parenthesis
  std::size_t body_begin = 0;  // token index of `{`
  std::size_t body_end = 0;    // token index one past matching `}`
  std::size_t name_tok = 0;    // token index of the name
  std::string class_name;  // `X` for out-of-line `X::f` definitions
  bool is_dtor = false;
  bool is_noexcept = false;  // explicit noexcept (dtors are implicit)
  std::vector<CallSite> calls;
  RankTaint taint;  // filled by analyze_function
  // Variables assigned under rank-dependent control flow (feeds the
  // CC-P2P-TAGDIV rule) and aliases of `<receiver>.rank()` (feeds
  // CC-P2P-SELF): (alias, receiver) pairs.
  std::vector<std::string> divergent_vars;
  std::vector<std::pair<std::string, std::string>> rank_aliases;
};

struct FileUnit {
  std::string path;       // repo-root-relative, forward slashes
  std::string component;  // layer component ("core", "tests", ...)
  LexedFile lexed;
  std::vector<FunctionInfo> functions;
};

}  // namespace collcheck
