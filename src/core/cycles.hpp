// Simple (elementary) cycle counting via Johnson's algorithm.
//
// The paper uses two cycle statistics: the total number of unique resource
// dependency cycles in the CWG (Figs. 6a, 7b) and the "knot cycle density" —
// the number of unique cycles inside a knot. Cycle counts explode
// exponentially at saturation ("hundreds of thousands"), so enumeration takes
// a hard cap: once `cap` cycles have been found the result is flagged capped
// and reported as a lower bound, which preserves the growth shape the paper
// plots at a bounded cost.
#pragma once

#include <cstdint>
#include <vector>

#include "core/graph.hpp"

namespace flexnet {

struct CycleEnumeration {
  std::int64_t count = 0;
  bool capped = false;
  /// Up to `store_limit` concrete cycles (vertex sequences), for reporting.
  std::vector<std::vector<int>> cycles;
};

/// Counts elementary cycles of `graph`, stopping at `cap`. When
/// `store_limit` > 0, that many cycles are also materialized. A count-only
/// call (`store_limit` == 0) first series-reduces each strongly connected
/// component, replacing chains of one-in/one-out vertices by single arcs;
/// `count` and `capped` are the same on both paths.
[[nodiscard]] CycleEnumeration enumerate_simple_cycles(const Digraph& graph,
                                                       std::int64_t cap,
                                                       std::size_t store_limit = 0);

}  // namespace flexnet
