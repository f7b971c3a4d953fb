#include "core/cycles.hpp"

#include <algorithm>
#include <cstdint>
#include <span>
#include <utility>

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
  JohnsonSearch(const Digraph& graph, std::span<const int> to_original,
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
  std::span<const int> to_original_;
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

/// Counts one cycle against the cap; true once the cap is reached.
bool count_cycle(CycleEnumeration& out, std::int64_t cap) {
  ++out.count;
  if (out.count >= cap) out.capped = true;
  return out.capped;
}

/// Series reduction of a strongly connected component without self-loops,
/// for counting only (DESIGN.md §3e): bypasses every vertex with exactly one
/// in-arc u -> v and one out-arc v -> w, so each maximal chain of such
/// vertices becomes a single arc from the branch vertex before it to the one
/// after it. Every simple cycle through a bypassed vertex uses both of its
/// arcs, so the simple cycles of the result map one to one onto those of
/// `comp`. The rules that keep it so:
///   - an arc u -> w is added even when one exists; parallel arcs are
///     distinct cycles and the search counts them separately;
///   - a chain that returns to its own start (u == w) is a one-vertex cycle:
///     it is counted into `out` here and not added, as the self-loop
///     pre-count does;
///   - a component whose every vertex can be bypassed is one ring: it is
///     counted here and `comp` becomes empty.
/// `comp` is replaced by the result (remaining vertices in ascending order),
/// which is again strongly connected and free of self-loops. Returns whether
/// any vertex was bypassed; stops early once `out` reaches the cap.
bool series_reduce(Digraph& comp, std::int64_t cap, CycleEnumeration& out) {
  const int n = comp.num_vertices();
  std::vector<int> in_degree(static_cast<std::size_t>(n), 0);
  for (int v = 0; v < n; ++v) {
    for (const int w : comp.out(v)) ++in_degree[static_cast<std::size_t>(w)];
  }
  // kept[v]: v's vertex in the result, or -1 when v is bypassed.
  std::vector<int> kept(static_cast<std::size_t>(n), -1);
  int num_kept = 0;
  for (int v = 0; v < n; ++v) {
    if (in_degree[static_cast<std::size_t>(v)] != 1 || comp.out(v).size() != 1) {
      kept[static_cast<std::size_t>(v)] = num_kept++;
    }
  }
  if (num_kept == n) return false;
  Digraph reduced(num_kept);
  if (num_kept == 0) {
    count_cycle(out, cap);
  } else {
    // Every chain ends at a kept vertex: a chain closed on itself would be a
    // ring cut off from the component's kept vertices.
    for (int u = 0; u < n && !out.capped; ++u) {
      const int from = kept[static_cast<std::size_t>(u)];
      if (from < 0) continue;
      for (int w : comp.out(u)) {
        while (kept[static_cast<std::size_t>(w)] < 0) w = comp.out(w).front();
        if (w != u) {
          reduced.add_edge(from, kept[static_cast<std::size_t>(w)]);
        } else if (count_cycle(out, cap)) {
          break;
        }
      }
    }
  }
  comp = std::move(reduced);
  return true;
}

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
      if (result.cycles.size() < store_limit) result.cycles.push_back({v});
      if (count_cycle(result, cap)) break;
    }
  }
  if (result.capped) return result;

  // Cycles never span SCCs; search each nontrivial component independently.
  // Bucket the vertices by component, ascending within each, and note each
  // vertex's position in its bucket: one O(V) pass for all components.
  const SccResult scc = strongly_connected_components(graph);
  const auto n = static_cast<std::size_t>(graph.num_vertices());
  const auto num_components = static_cast<std::size_t>(scc.num_components);
  std::vector<int> first(num_components + 1, 0);
  for (std::size_t c = 0; c < num_components; ++c) {
    first[c + 1] = first[c] + scc.size[c];
  }
  std::vector<int> order(n);
  std::vector<int> local(n);
  std::vector<int> filled(num_components, 0);
  for (std::size_t v = 0; v < n; ++v) {
    const auto c = static_cast<std::size_t>(scc.component[v]);
    local[v] = filled[c]++;
    order[static_cast<std::size_t>(first[c] + local[v])] = static_cast<int>(v);
  }

  for (std::size_t c = 0; c < num_components && !result.capped; ++c) {
    if (scc.size[c] < 2) continue;
    const std::span<const int> members(order.data() + first[c],
                                       static_cast<std::size_t>(scc.size[c]));
    // The component's own graph, self-loops (already counted) stripped.
    Digraph sub(scc.size[c]);
    for (std::size_t i = 0; i < members.size(); ++i) {
      for (const int w : graph.out(members[i])) {
        if (w != members[i] && scc.component[static_cast<std::size_t>(w)] ==
                                   static_cast<int>(c)) {
          sub.add_edge(static_cast<int>(i), local[static_cast<std::size_t>(w)]);
        }
      }
    }
    if (store_limit > 0) {
      // Materializing: the plain search, whose stored cycles are vertex
      // sequences of `graph` in the search's own order.
      JohnsonSearch search(sub, members, cap, store_limit, result);
      search.run();
      continue;
    }
    // Counting only: bypass chain vertices until none is left, so the search
    // scales with the component's branch points, not its vertex count.
    bool bypassed = true;
    while (bypassed && !result.capped) {
      bypassed = series_reduce(sub, cap, result);
    }
    if (result.capped || sub.num_vertices() < 2) continue;
    JohnsonSearch search(sub, {}, cap, 0, result);
    search.run();
  }
  return result;
}

}  // namespace flexnet
