// collcheck v3 schedule pass: summarize each function as a small automaton
// over collective/p2p operations, compose the summaries inter-procedurally
// over the name-collapsed call graph, and check whole-program collective
// *schedules* instead of single call sites.  Drives the CC-SCHED-* rule
// family, the CC-FIBER-* fiber-readiness audit, and the `--dump-schedules`
// snapshot the CI drift gate diffs.  Model and canonicalization rules are
// documented in DESIGN.md §15.
#pragma once

#include <string>
#include <vector>

#include "model.hpp"

namespace collcheck {

struct SharedModel;

// One node of a function's schedule automaton.  The tree is built by a
// structural walk of the token stream (the same walk the rank-taint engine
// performs) and then canonicalized: nested sequences flatten, op-free
// subtrees drop, and alternations whose branches render identically
// collapse to a single branch.
struct SchedNode {
  enum class Kind {
    kOp,    // a collective (or, with p2p set, a send/recv) call
    kCall,  // a call into another scanned function, by name
    kSeq,   // children in order
    kAlt,   // one of children executes (if/else chain, switch)
    kLoop,  // children[0] executes zero or more times
    kTry,   // children[0] = body, children[1..] = catch handlers
  };
  Kind kind = Kind::kSeq;
  std::string name;        // kOp: op name; kCall: callee name
  int line = 0;
  bool divergent = false;  // kAlt/kLoop: condition / trip count rank-tainted
  bool p2p = false;        // kOp: point-to-point rather than collective
  bool rank_conditional = false;  // kOp/kCall: call site under rank taint
  std::vector<SchedNode> children;
  // kAlt: per-branch "contains an early return" flag (feeds the
  // skipped-tail variant of CC-SCHED-DIV).
  std::vector<unsigned char> branch_exits;
  // kTry: the caught type name for children[1..], "..." for ellipsis.
  std::vector<std::string> catch_types;
};

// CC-COLL-DIV / CC-COLL-DIV-CALL (a rank-conditional collective, or call
// into a collective-bearing function) and CC-SCHED-DIV / CC-SCHED-ORDER /
// CC-SCHED-LOOP / CC-SCHED-UNWIND over every scanned function,
// inter-procedural through the op-bearing fixpoint.
void run_schedule_rules(const std::vector<FileUnit>& files,
                        std::vector<Finding>& findings);

// CC-FIBER-BLOCK / CC-FIBER-TLS: OS-blocking primitives and thread_local
// state inside sim-path components (layer rank < 100).  Uses the shared
// model's lock-region tracking for "mutex held across a blocking op".
void run_fiber_rules(const SharedModel& m, std::vector<Finding>& findings);

// Render the canonical schedule reachable from each public entry point
// (DUMP_OUTPUT, checkpoint_now, recover_world, repair_replicas,
// pfs_restore) as a byte-stable text artifact for CI diffing.
[[nodiscard]] std::string dump_schedules(const std::vector<FileUnit>& files);

}  // namespace collcheck
