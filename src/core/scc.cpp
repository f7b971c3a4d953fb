#include "core/scc.hpp"

#include <algorithm>

namespace flexnet {

namespace {

/// Sizes both arenas to `graph` and clears what the previous search left in
/// `result`.
void prepare(const Digraph& graph, SccResult& result, SccScratch& scratch) {
  const auto n = static_cast<std::size_t>(graph.num_vertices());
  if (scratch.visit.size() < n) scratch.visit.resize(n);
  if (result.component.size() == n) {
    for (const int v : result.reached) {
      result.component[static_cast<std::size_t>(v)] = -1;
    }
  } else {
    result.component.assign(n, -1);
  }
  result.num_components = 0;
  result.size.clear();
  result.reached.clear();
}

/// Tarjan from `root`, unless an earlier root reached it. A reached vertex
/// is on the stack exactly while its component is still -1.
void tarjan_from(const Digraph& graph, int root, SccResult& result,
                 SccScratch& scratch) {
  auto& state = scratch.visit;
  auto& component = result.component;
  auto& stack = scratch.stack;
  auto& frames = scratch.frames;
  if (state[static_cast<std::size_t>(root)].index != -1) return;
  // Every vertex reached before this root already sits in a component.
  int next_index = static_cast<int>(result.reached.size());

  frames.emplace_back(root, 0);
  state[static_cast<std::size_t>(root)] = {next_index, next_index};
  ++next_index;
  stack.push_back(root);

  while (!frames.empty()) {
    auto& frame = frames.back();
    const int v = frame.first;
    auto& sv = state[static_cast<std::size_t>(v)];
    const auto edges = graph.out(v);
    if (frame.second < edges.size()) {
      const int w = edges[frame.second++];
      const auto& sw = state[static_cast<std::size_t>(w)];
      if (sw.index == -1) {
        state[static_cast<std::size_t>(w)] = {next_index, next_index};
        ++next_index;
        stack.push_back(w);
        frames.emplace_back(w, 0);
      } else if (component[static_cast<std::size_t>(w)] == -1) {
        sv.lowlink = std::min(sv.lowlink, sw.index);
      }
      continue;
    }
    // v is fully explored.
    if (sv.lowlink == sv.index) {
      const int comp = result.num_components++;
      int members = 0;
      for (;;) {
        const int w = stack.back();
        stack.pop_back();
        component[static_cast<std::size_t>(w)] = comp;
        result.reached.push_back(w);
        ++members;
        if (w == v) break;
      }
      result.size.push_back(members);
    }
    const int low = sv.lowlink;
    frames.pop_back();
    if (!frames.empty()) {
      auto& parent = state[static_cast<std::size_t>(frames.back().first)];
      parent.lowlink = std::min(parent.lowlink, low);
    }
  }
}

}  // namespace

SccResult strongly_connected_components(const Digraph& graph) {
  SccResult result;
  SccScratch scratch;
  prepare(graph, result, scratch);
  for (int v = 0; v < graph.num_vertices(); ++v) {
    tarjan_from(graph, v, result, scratch);
  }
  return result;
}

void strongly_connected_components(const Digraph& graph,
                                   std::span<const int> roots,
                                   SccResult& result, SccScratch& scratch) {
  prepare(graph, result, scratch);
  for (const int root : roots) tarjan_from(graph, root, result, scratch);
  for (const int v : result.reached) {
    scratch.visit[static_cast<std::size_t>(v)].index = -1;
  }
}

}  // namespace flexnet
