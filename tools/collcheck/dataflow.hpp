// collcheck shared dataflow layer: the class/field index over the scanned
// sources, lock guard-region tracking, and call-graph summaries reused by
// the CC-RACE, CC-EXC and CC-P2P rule families.  Semantics and known
// false-negative limits are documented in DESIGN.md §13.
#pragma once

#include <cstddef>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "model.hpp"

namespace collcheck {

enum class FieldKind {
  kPlain,    // ordinary mutable data: subject to lockset analysis
  kMutex,    // std::mutex / shared_mutex / ... — the guards themselves
  kAtomic,   // std::atomic<...> — safe without a lock by construction
  kCondVar,  // std::condition_variable — used around locks by design
  kConst,    // const-qualified — immutable after construction
};

struct FieldInfo {
  std::string name;
  FieldKind kind = FieldKind::kPlain;
  int line = 0;
};

// One class/struct definition found in a scanned file.
struct ClassInfo {
  std::string name;
  std::size_t file_index = 0;  // into AnalysisResult::files
  std::size_t body_begin = 0;  // token index just after the class "{"
  std::size_t body_end = 0;    // token index of the matching "}"
  int line = 0;
  std::vector<FieldInfo> fields;
  bool has_mutex = false;  // owns a mutex => treated as shared state

  [[nodiscard]] const FieldInfo* field(const std::string& n) const;
};

// One lock acquisition site (guard-object declaration or manual .lock()).
struct LockAcquire {
  std::vector<std::string> mutexes;      // all mutexes taken at this site
  std::vector<std::string> held_before;  // locks already held lexically
  int line = 0;
};

// A manually-managed resource span for CC-EXC-RESOURCE: acquired at
// `open_tok`, released at `close_tok` (body_end when never released).
struct ManualSpan {
  std::string what;  // e.g. "mutex 'mu_' locked via .lock()"
  std::size_t open_tok = 0;
  std::size_t close_tok = 0;
  int line = 0;
};

// Per-function guard state: for every body token, the set of mutex names
// held at that point.  Regions are lexical; unique_lock unlock()/lock()
// toggles are modeled, condition_variable wait-releases are not
// (documented in DESIGN.md §13).
struct GuardInfo {
  std::size_t body_begin = 0;
  std::vector<std::vector<std::string>> held;  // index: tok - body_begin
  std::vector<LockAcquire> acquires;
  std::vector<ManualSpan> manual;
  std::vector<std::string> guard_vars;  // declared guard-object names

  [[nodiscard]] const std::vector<std::string>& held_at(
      std::size_t tok) const;
};

// Derived facts about one function, aligned with
// files[file_index].functions[fn_index].
struct FnFacts {
  std::size_t file_index = 0;
  std::size_t fn_index = 0;
  const ClassInfo* cls = nullptr;  // owning class, when resolved
  bool ctor_dtor = false;          // ctor/dtor of `cls`
  GuardInfo guards;
  // Locks held by every caller at every observed same-class call site
  // (the `*_locked` helper convention): intersection over call sites.
  std::vector<std::string> ctx_held;
  // Same-class transitive lock acquisitions (for lock-order edges).
  std::set<std::string> locks_acquired;
  bool direct_throw = false;   // body contains a RankDead throw site
  bool swallows_all = false;   // catch (...) without rethrow: a firewall
};

struct SharedModel {
  const std::vector<FileUnit>* files = nullptr;
  std::vector<ClassInfo> classes;
  std::vector<FnFacts> fns;  // ordered by (file_index, fn_index)
  // Name-collapsed "can this callee reach a RankDeadError throw site"
  // summary (same collapse as the schedule pass's op-bearing map).
  std::unordered_map<std::string, bool> throws_by_name;

  [[nodiscard]] const FnFacts* facts(std::size_t file_index,
                                     std::size_t fn_index) const;
  // Can this call site throw RankDeadError (directly or via summary)?
  [[nodiscard]] bool call_may_throw(const CallSite& c) const;
};

[[nodiscard]] SharedModel build_shared_model(
    const std::vector<FileUnit>& files);

// Is this a free call to an operation in the collective registry
// (obs/collectives.def), unqualified or `simmpi::`-qualified?
[[nodiscard]] bool is_registry_collective(const CallSite& c);

// Is this call site itself a RankDeadError throw site (collective, recv,
// shrink, fence, fault_point)?
[[nodiscard]] bool is_rankdead_throw_site(const CallSite& c);

// The three v2 rule passes.
void run_race_rules(const SharedModel& m, std::vector<Finding>& findings);
void run_exc_rules(const SharedModel& m, std::vector<Finding>& findings);
void run_p2p_rules(const SharedModel& m, std::vector<Finding>& findings);

}  // namespace collcheck
