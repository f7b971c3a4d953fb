#include "core/cycles.hpp"

#include <algorithm>
#include <cstdint>
#include <span>

#include "core/scc.hpp"

namespace flexnet {

namespace {

/// Johnson's elementary-circuit search over one strongly connected component
/// (self-loops pre-counted and stripped by the caller).
///
/// Start vertex s searches the SCC of s within the vertices >= s. Instead of
/// copying that subgraph, the search marks its vertices in place and walks
/// the component's own adjacency lists, skipping unmarked targets; filtering
/// keeps each list's order, so circuits are found in the same order as on a
/// copied subgraph. Marking costs one O(V+E) pass per start and allocates
/// nothing once the scratch vectors have grown. The path walk and unblocking
/// keep explicit stacks, so path length is not bounded by the call stack.
class JohnsonSearch {
 public:
  JohnsonSearch(const Digraph& graph, const std::vector<int>& to_original,
                std::int64_t cap, std::size_t store_limit,
                CycleEnumeration& out)
      : graph_(graph),
        to_original_(to_original),
        cap_(cap),
        store_limit_(store_limit),
        out_(out) {}

  void run() {
    const int n = graph_.num_vertices();
    const auto un = static_cast<std::size_t>(n);
    blocked_.assign(un, 0);
    b_sets_.assign(un, {});
    reached_.assign(un, -1);
    marked_.assign(un, -1);
    build_reverse();
    for (start_ = 0; start_ < n && !out_.capped; ++start_) {
      // No arc leaves or enters start_ from above it: its SCC among the
      // vertices >= start_ is {start_} alone, which holds no circuit.
      const auto s = static_cast<std::size_t>(start_);
      if (max_out_[s] <= start_ || max_in_[s] <= start_) continue;
      // Restrict to the SCC (within vertices >= start_) containing start_;
      // this keeps start_ the least vertex of every circuit found.
      if (mark_component() < 2) continue;
      circuit();
    }
  }

 private:
  /// Builds the reverse adjacency and each vertex's highest out- and
  /// in-neighbour, once per component.
  void build_reverse() {
    const int n = graph_.num_vertices();
    reverse_ = Digraph(n);
    max_out_.assign(static_cast<std::size_t>(n), -1);
    max_in_.assign(static_cast<std::size_t>(n), -1);
    for (int v = 0; v < n; ++v) {
      for (const int w : graph_.out(v)) {
        reverse_.add_edge(w, v);
        auto& out_max = max_out_[static_cast<std::size_t>(v)];
        auto& in_max = max_in_[static_cast<std::size_t>(w)];
        out_max = std::max(out_max, w);
        in_max = std::max(in_max, v);
      }
    }
  }

  /// Marks start_'s SCC among the vertices >= start_: the vertices reached
  /// forward from start_ that also reach it backward within that reach.
  /// Resets blocked and B for each marked vertex; returns how many it marked.
  int mark_component() {
    stack_.assign(1, start_);
    reached_[static_cast<std::size_t>(start_)] = start_;
    while (!stack_.empty()) {
      const int v = stack_.back();
      stack_.pop_back();
      for (const int w : graph_.out(v)) {
        auto& r = reached_[static_cast<std::size_t>(w)];
        if (w > start_ && r != start_) {
          r = start_;
          stack_.push_back(w);
        }
      }
    }
    int count = 0;
    stack_.assign(1, start_);
    marked_[static_cast<std::size_t>(start_)] = start_;
    while (!stack_.empty()) {
      const int v = stack_.back();
      stack_.pop_back();
      ++count;
      blocked_[static_cast<std::size_t>(v)] = 0;
      b_sets_[static_cast<std::size_t>(v)].clear();
      for (const int u : reverse_.out(v)) {
        auto& m = marked_[static_cast<std::size_t>(u)];
        if (reached_[static_cast<std::size_t>(u)] == start_ && m != start_) {
          m = start_;
          stack_.push_back(u);
        }
      }
    }
    return count;
  }

  /// Johnson's CIRCUIT from start_, with the call stack held in frames_:
  /// the current path vertex and its edge cursor live in locals, and
  /// frames_ holds the vertices before it on the path.
  void circuit() {
    // Held in locals: a store to a byte flag may alias any member, so
    // reading start_ or marked_ through `this` would reload them per arc.
    const int s = start_;
    const int* const mark = marked_.data();
    int v = s;
    std::span<const int> edges = graph_.out(v);
    std::size_t next = 0;
    bool found = false;
    blocked_[static_cast<std::size_t>(v)] = 1;
    for (;;) {
      if (next < edges.size() && !out_.capped) {
        const int w = edges[next++];
        if (mark[w] != s) continue;
        if (w == s) {
          record_cycle(v);
          found = true;
        } else if (!blocked_[static_cast<std::size_t>(w)]) {
          frames_.push_back(Frame{v, next, found});
          v = w;
          edges = graph_.out(v);
          next = 0;
          found = false;
          blocked_[static_cast<std::size_t>(v)] = 1;
        }
        continue;
      }
      // v is finished: return to the vertex before it on the path.
      if (found) {
        unblock(v);
      } else {
        for (const int w : edges) {
          if (mark[w] != s) continue;
          auto& b = b_sets_[static_cast<std::size_t>(w)];
          if (std::find(b.begin(), b.end(), v) == b.end()) b.push_back(v);
        }
      }
      if (frames_.empty()) return;
      const Frame parent = frames_.back();
      frames_.pop_back();
      v = parent.v;
      edges = graph_.out(v);
      next = parent.next;
      found = parent.found || found;
    }
  }

  /// Johnson's UNBLOCK, depth-first through the B sets like the recursive
  /// form, with the pending vertices held in stack_.
  void unblock(int v) {
    blocked_[static_cast<std::size_t>(v)] = 0;
    if (b_sets_[static_cast<std::size_t>(v)].empty()) return;
    stack_.assign(1, v);
    while (!stack_.empty()) {
      auto& b = b_sets_[static_cast<std::size_t>(stack_.back())];
      if (b.empty()) {
        stack_.pop_back();
        continue;
      }
      const int w = b.back();
      b.pop_back();
      if (blocked_[static_cast<std::size_t>(w)]) {
        blocked_[static_cast<std::size_t>(w)] = 0;
        stack_.push_back(w);
      }
    }
  }

  /// Records the circuit along the path: frames_, then `last`.
  void record_cycle(int last) {
    ++out_.count;
    if (out_.cycles.size() < store_limit_) {
      std::vector<int> cycle;
      cycle.reserve(frames_.size() + 1);
      for (const Frame& frame : frames_) {
        cycle.push_back(to_original_[static_cast<std::size_t>(frame.v)]);
      }
      cycle.push_back(to_original_[static_cast<std::size_t>(last)]);
      out_.cycles.push_back(std::move(cycle));
    }
    if (out_.count >= cap_) out_.capped = true;
  }

  /// A suspended CIRCUIT call: path vertex, cursor into graph_.out(v) just
  /// past the arc taken, and whether a circuit through v was found so far.
  struct Frame {
    int v = 0;
    std::size_t next = 0;
    bool found = false;
  };

  const Digraph& graph_;
  const std::vector<int>& to_original_;
  std::int64_t cap_;
  std::size_t store_limit_;
  CycleEnumeration& out_;

  int start_ = 0;
  std::vector<std::uint8_t> blocked_;
  std::vector<std::vector<int>> b_sets_;
  std::vector<Frame> frames_;  ///< The path before its last vertex.
  std::vector<int> stack_;     ///< Marking / unblock worklist.
  // Stamped with start_: reached forward from it / in its SCC.
  std::vector<int> reached_;
  std::vector<int> marked_;
  // Reverse adjacency and the highest neighbour each way.
  Digraph reverse_;
  std::vector<int> max_out_;
  std::vector<int> max_in_;
};

}  // namespace

CycleEnumeration enumerate_simple_cycles(const Digraph& graph, std::int64_t cap,
                                         std::size_t store_limit) {
  CycleEnumeration result;
  if (cap <= 0) {
    result.capped = true;
    return result;
  }

  // Self-loops are length-1 cycles; count them upfront and exclude them from
  // the search below.
  for (int v = 0; v < graph.num_vertices() && !result.capped; ++v) {
    for (const int w : graph.out(v)) {
      if (w != v) continue;
      ++result.count;
      if (result.cycles.size() < store_limit) result.cycles.push_back({v});
      if (result.count >= cap) {
        result.capped = true;
        break;
      }
    }
  }
  if (result.capped) return result;

  // Cycles never span SCCs; search each nontrivial component independently.
  const SccResult scc = strongly_connected_components(graph);
  for (int comp = 0; comp < scc.num_components && !result.capped; ++comp) {
    if (scc.size[static_cast<std::size_t>(comp)] < 2) continue;
    const std::vector<int> members = scc.members(comp);
    Digraph sub = graph.induced(members);
    // Strip self-loops (already counted).
    Digraph clean(sub.num_vertices());
    for (int v = 0; v < sub.num_vertices(); ++v) {
      for (const int w : sub.out(v)) {
        if (w != v) clean.add_edge(v, w);
      }
    }
    JohnsonSearch search(clean, members, cap, store_limit, result);
    search.run();
  }
  return result;
}

}  // namespace flexnet
