// collcheck rank-taint engine: which variables carry rank-derived values,
// and which body tokens sit under rank-dependent control flow (including
// early-return escalation).  analyze_function runs it once per function
// and stores the result in FunctionInfo::taint for the schedule pass
// (schedule.cpp).
#pragma once

#include <cstddef>
#include <string>
#include <unordered_set>

#include "model.hpp"
#include "tokutil.hpp"

namespace collcheck {

// Identifiers whose value names "which rank am I" directly.
[[nodiscard]] const std::unordered_set<std::string>& rank_source_idents();

// Does the token span [b, e) mention a rank source or a tainted variable?
[[nodiscard]] bool span_tainted(const Toks& toks, const RankTaint& taint,
                                std::size_t b, std::size_t e);

// Taint of the function body [b, e).  Variables assigned from
// rank-derived expressions are collected first (two passes pick up simple
// transitive chains: a = comm.rank(); b = a + 1;).  Then every token under
// a rank-dependent condition is marked, and a rank-conditional region that
// exits early (return) makes every subsequent statement in the enclosing
// scopes divergent too (the classic `if (rank != 0) return; bcast(...)`
// bug).
[[nodiscard]] RankTaint rank_taint(const Toks& toks, std::size_t b,
                                   std::size_t e);

}  // namespace collcheck
