#include "core/graph.hpp"

#include <algorithm>
#include <stdexcept>

namespace flexnet {

void Digraph::reset(int num_vertices) {
  const auto n = static_cast<std::size_t>(num_vertices);
  const std::size_t keep = std::min(adj_.size(), n);
  for (std::size_t i = 0; i < keep; ++i) adj_[i].clear();
  adj_.resize(n);
  num_edges_ = 0;
}

void Digraph::add_edge(int from, int to) {
  if (from < 0 || from >= num_vertices() || to < 0 || to >= num_vertices()) {
    throw std::out_of_range("Digraph::add_edge vertex out of range");
  }
  adj_[static_cast<std::size_t>(from)].push_back(to);
  ++num_edges_;
}

bool Digraph::has_edge(int from, int to) const noexcept {
  const auto& row = adj_[static_cast<std::size_t>(from)];
  return std::find(row.begin(), row.end(), to) != row.end();
}

Digraph Digraph::induced(std::span<const int> vertices) const {
  std::vector<int> index;
  return induced(vertices, index);
}

Digraph Digraph::induced(std::span<const int> vertices,
                         std::vector<int>& index) const {
  if (index.size() < adj_.size()) index.resize(adj_.size(), -1);
  // Puts back -1 at every entry this call set, on return and on a throw.
  std::size_t filled = 0;
  struct Reset {
    std::span<const int> vertices;
    const std::size_t& filled;
    std::vector<int>& index;
    ~Reset() {
      for (const int v : vertices.first(filled)) {
        index[static_cast<std::size_t>(v)] = -1;
      }
    }
  } const reset{vertices, filled, index};
  for (; filled < vertices.size(); ++filled) {
    int& slot = index[static_cast<std::size_t>(vertices[filled])];
    if (slot != -1) {
      throw std::invalid_argument("Digraph::induced: vertex repeated");
    }
    slot = static_cast<int>(filled);
  }
  Digraph sub(static_cast<int>(vertices.size()));
  for (std::size_t i = 0; i < vertices.size(); ++i) {
    for (const int to : out(vertices[i])) {
      const int mapped = index[static_cast<std::size_t>(to)];
      if (mapped >= 0) sub.add_edge(static_cast<int>(i), mapped);
    }
  }
  return sub;
}

}  // namespace flexnet
