// Dense-vertex directed graph used for channel wait-for graphs and their
// analysis (SCC, knots, simple-cycle enumeration).
#pragma once

#include <span>
#include <vector>

namespace flexnet {

class Digraph {
 public:
  Digraph() = default;
  explicit Digraph(int num_vertices) : adj_(static_cast<std::size_t>(num_vertices)) {}

  /// Clears all edges and resizes to `num_vertices`, keeping the capacity of
  /// surviving adjacency rows so repeated rebuilds stop allocating.
  void reset(int num_vertices);

  [[nodiscard]] int num_vertices() const noexcept {
    return static_cast<int>(adj_.size());
  }
  [[nodiscard]] int num_edges() const noexcept { return num_edges_; }

  void add_edge(int from, int to);

  [[nodiscard]] std::span<const int> out(int v) const {
    return adj_[static_cast<std::size_t>(v)];
  }

  [[nodiscard]] bool has_edge(int from, int to) const noexcept;

  /// Subgraph induced by `vertices` (distinct); vertex i of the result
  /// corresponds to vertices[i] in this graph. Allocates an index the size of
  /// this graph; the overload below reuses one.
  [[nodiscard]] Digraph induced(std::span<const int> vertices) const;

  /// The same subgraph in time proportional to `vertices` and their arcs:
  /// `index` (grown to num_vertices() with -1) maps this graph's vertices to
  /// the result's. It must hold -1 at every entry on entry and holds -1
  /// again on return; a repeated vertex throws std::invalid_argument.
  [[nodiscard]] Digraph induced(std::span<const int> vertices,
                                std::vector<int>& index) const;

 private:
  std::vector<std::vector<int>> adj_;
  int num_edges_ = 0;
};

}  // namespace flexnet
