// Strongly connected components via an iterative Tarjan's algorithm
// (explicit stack; CWGs at saturation can hold thousands of vertices, so no
// recursion). Components are numbered in reverse topological order: every
// edge between components goes from a higher component id to a lower one.
#pragma once

#include <cstddef>
#include <span>
#include <utility>
#include <vector>

#include "core/graph.hpp"

namespace flexnet {

struct SccResult {
  int num_components = 0;
  std::vector<int> component;  ///< vertex -> component id; -1 when not reached
  std::vector<int> size;       ///< component id -> vertex count
  /// The vertices the search reached, component by component in id order
  /// (each component's members are contiguous).
  std::vector<int> reached;
};

/// Every component of `graph`: Tarjan from every vertex.
[[nodiscard]] SccResult strongly_connected_components(const Digraph& graph);

/// Working storage for the rooted overload below. Between calls every
/// vertex's `index` is -1, so a call touches only the entries it reaches.
struct SccScratch {
  struct Visit {
    int index = -1;  ///< discovery order; -1 = not yet reached
    int lowlink = 0;
  };
  std::vector<Visit> visit;  ///< per vertex; read and written together
  std::vector<int> stack;
  std::vector<std::pair<int, std::size_t>> frames;  ///< (vertex, edge cursor)
};

/// The components of the vertices reachable from `roots` (repeats allowed).
/// The reached set has no arc leaving it, so each of its components is a
/// component of the whole graph. `result` and `scratch` are reused across
/// calls: `result.component` is cleared only at the entries the previous
/// call reached, and a call costs O(reached vertices + their arcs) once both
/// are sized to the graph (they grow on demand and never shrink).
void strongly_connected_components(const Digraph& graph,
                                   std::span<const int> roots,
                                   SccResult& result, SccScratch& scratch);

}  // namespace flexnet
