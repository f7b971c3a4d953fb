#include "core/cycles.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/scc.hpp"
#include "util/rng.hpp"

namespace flexnet {
namespace {

using CycleList = std::vector<std::vector<int>>;

// Independent oracle: for each vertex s, walk every simple path from s over
// vertices > s and count each arc from the path's end back to s. Each cycle
// is reported once per distinct arc sequence (parallel arcs and self-loops
// count separately), as its vertex sequence from its least vertex.
void extend_paths(const Digraph& g, std::vector<int>& path,
                  std::vector<bool>& on_path, CycleList& out) {
  const int s = path.front();
  for (const int w : g.out(path.back())) {
    if (w == s) {
      out.push_back(path);
    } else if (w > s && !on_path[static_cast<std::size_t>(w)]) {
      on_path[static_cast<std::size_t>(w)] = true;
      path.push_back(w);
      extend_paths(g, path, on_path, out);
      path.pop_back();
      on_path[static_cast<std::size_t>(w)] = false;
    }
  }
}

CycleList brute_force_cycles(const Digraph& g) {
  CycleList cycles;
  std::vector<bool> on_path(static_cast<std::size_t>(g.num_vertices()), false);
  for (int s = 0; s < g.num_vertices(); ++s) {
    std::vector<int> path{s};
    extend_paths(g, path, on_path, cycles);
  }
  return cycles;
}

/// A small random multigraph (n <= 9) with self-loops and parallel arcs;
/// every fourth one is chain-heavy, like the ownership chains of a CWG knot.
Digraph random_multigraph(Pcg32& rng, int index) {
  const int n = 1 + static_cast<int>(rng.bounded(9));
  Digraph g(n);
  const auto pick = [&] {
    return static_cast<int>(rng.bounded(static_cast<std::uint32_t>(n)));
  };
  if (index % 4 == 3) {
    // A chain through a shuffled vertex order, closed or not, plus a few
    // shortcuts between chain positions.
    std::vector<int> order(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) order[static_cast<std::size_t>(i)] = i;
    for (int i = n - 1; i > 0; --i) {
      std::swap(order[static_cast<std::size_t>(i)],
                order[rng.bounded(static_cast<std::uint32_t>(i + 1))]);
    }
    for (int i = 0; i + 1 < n; ++i) {
      g.add_edge(order[static_cast<std::size_t>(i)],
                 order[static_cast<std::size_t>(i + 1)]);
    }
    if (rng.bounded(4) != 0) g.add_edge(order.back(), order.front());
    const int shortcuts = static_cast<int>(rng.bounded(4));
    for (int e = 0; e < shortcuts; ++e) {
      g.add_edge(order[static_cast<std::size_t>(pick())],
                 order[static_cast<std::size_t>(pick())]);
    }
    return g;
  }
  const int arcs = static_cast<int>(rng.bounded(static_cast<std::uint32_t>(3 * n + 1)));
  for (int e = 0; e < arcs; ++e) {
    const int a = pick();
    const int b = rng.bounded(8) == 0 ? a : pick();  // some self-loops
    g.add_edge(a, b);
    if (rng.bounded(5) == 0) g.add_edge(a, b);  // some parallel arcs
  }
  return g;
}

/// `g` with every arc replaced by a chain through 0-4 fresh vertices, as the
/// ownership arcs of a worm chain its VCs between the CWG's branch points.
/// Fresh vertices are numbered after g's, in the order of g's arcs.
Digraph subdivided(const Digraph& g, Pcg32& rng) {
  struct Arc {
    int from;
    int to;
    int inner;
  };
  std::vector<Arc> arcs;
  int n = g.num_vertices();
  for (int v = 0; v < g.num_vertices(); ++v) {
    for (const int w : g.out(v)) {
      arcs.push_back({v, w, static_cast<int>(rng.bounded(5))});
      n += arcs.back().inner;
    }
  }
  Digraph h(n);
  int next = g.num_vertices();
  for (const Arc& arc : arcs) {
    int at = arc.from;
    for (int i = 0; i < arc.inner; ++i) {
      h.add_edge(at, next);
      at = next++;
    }
    h.add_edge(at, arc.to);
  }
  return h;
}

/// What one series-reduction pass meets in `g`, found independently of the
/// enumerator: chains that close on their own start vertex, two arcs of one
/// branch vertex ending at the same branch vertex with at least one of them
/// through a chain, and components that are one ring. (A chain vertex has
/// one in-arc and one out-arc inside its component, neither a self-loop.)
struct ReductionCases {
  int self_loop_closures = 0;
  int parallel_bypasses = 0;
  int rings = 0;
};

ReductionCases reduction_cases(const Digraph& g) {
  const SccResult scc = strongly_connected_components(g);
  const auto n = static_cast<std::size_t>(g.num_vertices());
  const auto inside = [&](int v, int w) {
    return v != w && scc.component[static_cast<std::size_t>(v)] ==
                         scc.component[static_cast<std::size_t>(w)];
  };
  std::vector<int> in_degree(n, 0);
  std::vector<int> out_degree(n, 0);
  for (int v = 0; v < g.num_vertices(); ++v) {
    for (const int w : g.out(v)) {
      if (!inside(v, w)) continue;
      ++out_degree[static_cast<std::size_t>(v)];
      ++in_degree[static_cast<std::size_t>(w)];
    }
  }
  const auto chain = [&](int v) {
    return in_degree[static_cast<std::size_t>(v)] == 1 &&
           out_degree[static_cast<std::size_t>(v)] == 1;
  };
  const auto next_inside = [&](int v) {
    for (const int w : g.out(v)) {
      if (inside(v, w)) return w;
    }
    return -1;
  };

  ReductionCases cases;
  std::vector<bool> ring(static_cast<std::size_t>(scc.num_components), true);
  for (int v = 0; v < g.num_vertices(); ++v) {
    const int c = scc.component[static_cast<std::size_t>(v)];
    if (!chain(v)) ring[static_cast<std::size_t>(c)] = false;
    if (chain(v) || scc.size[static_cast<std::size_t>(c)] < 2) continue;
    std::vector<std::pair<int, bool>> ends;  // (end vertex, through a chain)
    for (int w : g.out(v)) {
      if (!inside(v, w)) continue;
      const bool bypass = chain(w);
      while (chain(w)) w = next_inside(w);
      if (bypass && w == v) ++cases.self_loop_closures;
      for (const auto& [end, through] : ends) {
        if (end == w && (bypass || through)) ++cases.parallel_bypasses;
      }
      ends.emplace_back(w, bypass);
    }
  }
  for (int c = 0; c < scc.num_components; ++c) {
    if (ring[static_cast<std::size_t>(c)]) ++cases.rings;
  }
  return cases;
}

bool has_parallel_arcs(const Digraph& g) {
  for (int v = 0; v < g.num_vertices(); ++v) {
    std::vector<int> row(g.out(v).begin(), g.out(v).end());
    std::sort(row.begin(), row.end());
    if (std::adjacent_find(row.begin(), row.end()) != row.end()) return true;
  }
  return false;
}

/// Distinct vertices, least vertex first, and every consecutive arc present.
bool is_elementary_cycle(const Digraph& g, const std::vector<int>& cycle) {
  if (cycle.empty()) return false;
  std::vector<int> sorted = cycle;
  std::sort(sorted.begin(), sorted.end());
  if (std::adjacent_find(sorted.begin(), sorted.end()) != sorted.end()) return false;
  if (sorted.front() != cycle.front()) return false;
  for (std::size_t i = 0; i < cycle.size(); ++i) {
    if (!g.has_edge(cycle[i], cycle[(i + 1) % cycle.size()])) return false;
  }
  return true;
}

TEST(Cycles, AcyclicGraphHasNone) {
  Digraph g(4);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(0, 3);
  const CycleEnumeration r = enumerate_simple_cycles(g, 1000);
  EXPECT_EQ(r.count, 0);
  EXPECT_FALSE(r.capped);
}

TEST(Cycles, SingleCycle) {
  Digraph g(4);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 3);
  g.add_edge(3, 0);
  const CycleEnumeration r = enumerate_simple_cycles(g, 1000, 10);
  EXPECT_EQ(r.count, 1);
  ASSERT_EQ(r.cycles.size(), 1u);
  EXPECT_EQ(r.cycles[0].size(), 4u);
}

TEST(Cycles, CompleteDigraphK3HasFive) {
  // K3 with all directed edges: three 2-cycles and two 3-cycles.
  Digraph g(3);
  for (int a = 0; a < 3; ++a) {
    for (int b = 0; b < 3; ++b) {
      if (a != b) g.add_edge(a, b);
    }
  }
  const CycleEnumeration r = enumerate_simple_cycles(g, 1000);
  EXPECT_EQ(r.count, 5);
}

TEST(Cycles, CompleteDigraphK4HasTwenty) {
  // 6 two-cycles + 8 three-cycles + 6 four-cycles = 20.
  Digraph g(4);
  for (int a = 0; a < 4; ++a) {
    for (int b = 0; b < 4; ++b) {
      if (a != b) g.add_edge(a, b);
    }
  }
  const CycleEnumeration r = enumerate_simple_cycles(g, 1000);
  EXPECT_EQ(r.count, 20);
}

TEST(Cycles, SelfLoopsAreLengthOneCycles) {
  Digraph g(3);
  g.add_edge(0, 0);
  g.add_edge(1, 2);
  g.add_edge(2, 1);
  const CycleEnumeration r = enumerate_simple_cycles(g, 1000, 10);
  EXPECT_EQ(r.count, 2);
  // One stored cycle is the self-loop {0}.
  const bool has_self = std::any_of(
      r.cycles.begin(), r.cycles.end(),
      [](const std::vector<int>& c) { return c == std::vector<int>{0}; });
  EXPECT_TRUE(has_self);
}

TEST(Cycles, DisjointCyclesCounted) {
  Digraph g(6);
  g.add_edge(0, 1);
  g.add_edge(1, 0);
  g.add_edge(2, 3);
  g.add_edge(3, 4);
  g.add_edge(4, 2);
  const CycleEnumeration r = enumerate_simple_cycles(g, 1000);
  EXPECT_EQ(r.count, 2);
}

TEST(Cycles, ChordAddsExactlyOneCycle) {
  Digraph g(5);
  for (int i = 0; i < 5; ++i) g.add_edge(i, (i + 1) % 5);
  g.add_edge(0, 2);  // shortcut: ring cycle + chord cycle
  const CycleEnumeration r = enumerate_simple_cycles(g, 1000);
  EXPECT_EQ(r.count, 2);
}

TEST(Cycles, CapStopsEnumeration) {
  Digraph g(6);
  for (int a = 0; a < 6; ++a) {
    for (int b = 0; b < 6; ++b) {
      if (a != b) g.add_edge(a, b);
    }
  }
  const CycleEnumeration r = enumerate_simple_cycles(g, 10);
  EXPECT_TRUE(r.capped);
  EXPECT_EQ(r.count, 10);  // stops exactly at the cap
}

TEST(Cycles, CapFallingAmongParallelSelfLoopsStopsExactly) {
  Digraph g(2);
  g.add_edge(0, 0);
  g.add_edge(0, 0);
  g.add_edge(0, 1);
  g.add_edge(1, 0);
  const CycleEnumeration r = enumerate_simple_cycles(g, 1);
  EXPECT_TRUE(r.capped);
  EXPECT_EQ(r.count, 1);
}

TEST(Cycles, ZeroCapReportsCapped) {
  Digraph g(2);
  g.add_edge(0, 1);
  g.add_edge(1, 0);
  const CycleEnumeration r = enumerate_simple_cycles(g, 0);
  EXPECT_TRUE(r.capped);
  EXPECT_EQ(r.count, 0);
}

TEST(Cycles, StoreLimitBoundsMaterialization) {
  Digraph g(4);
  for (int a = 0; a < 4; ++a) {
    for (int b = 0; b < 4; ++b) {
      if (a != b) g.add_edge(a, b);
    }
  }
  const CycleEnumeration r = enumerate_simple_cycles(g, 1000, 3);
  EXPECT_EQ(r.count, 20);
  EXPECT_EQ(r.cycles.size(), 3u);
}

TEST(Cycles, StoredCyclesAreValidElementaryCycles) {
  Digraph g(5);
  for (int i = 0; i < 5; ++i) g.add_edge(i, (i + 1) % 5);
  g.add_edge(1, 3);
  g.add_edge(3, 1);
  const CycleEnumeration r = enumerate_simple_cycles(g, 1000, 100);
  ASSERT_EQ(static_cast<std::size_t>(r.count), r.cycles.size());
  for (const auto& cycle : r.cycles) {
    // Vertices distinct and consecutive edges present (wrapping).
    std::vector<int> sorted = cycle;
    std::sort(sorted.begin(), sorted.end());
    EXPECT_TRUE(std::adjacent_find(sorted.begin(), sorted.end()) == sorted.end());
    for (std::size_t i = 0; i < cycle.size(); ++i) {
      EXPECT_TRUE(g.has_edge(cycle[i], cycle[(i + 1) % cycle.size()]));
    }
  }
}

TEST(Cycles, FigureEightSharedVertex) {
  // Two triangles sharing vertex 0: exactly two cycles.
  Digraph g(5);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 0);
  g.add_edge(0, 3);
  g.add_edge(3, 4);
  g.add_edge(4, 0);
  const CycleEnumeration r = enumerate_simple_cycles(g, 1000);
  EXPECT_EQ(r.count, 2);
}

TEST(Cycles, MatchesBruteForceOracleOnRandomMultigraphs) {
  Pcg32 rng(2024);
  for (int i = 0; i < 400; ++i) {
    SCOPED_TRACE(i);
    const Digraph g = random_multigraph(rng, i);
    CycleList expected = brute_force_cycles(g);
    const auto total = static_cast<std::int64_t>(expected.size());

    // All cycles stored: the same multiset of cycles as the oracle, each one
    // elementary, and no repeats unless parallel arcs make them distinct.
    const CycleEnumeration all = enumerate_simple_cycles(g, 100000, 100000);
    EXPECT_EQ(all.count, total);
    EXPECT_FALSE(all.capped);
    CycleList stored = all.cycles;
    for (const auto& cycle : stored) EXPECT_TRUE(is_elementary_cycle(g, cycle));
    std::sort(stored.begin(), stored.end());
    std::sort(expected.begin(), expected.end());
    EXPECT_EQ(stored, expected);
    if (!has_parallel_arcs(g)) {
      EXPECT_TRUE(std::adjacent_find(stored.begin(), stored.end()) == stored.end());
    }

    // Caps around the true total: the count stops exactly at the cap, and
    // the result is capped iff the total reaches it, on the materializing
    // path and on the count-only (series-reduced) one.
    const CycleEnumeration counted = enumerate_simple_cycles(g, 100000);
    EXPECT_EQ(counted.count, total);
    EXPECT_FALSE(counted.capped);
    for (const std::int64_t cap :
         {std::int64_t{1}, total / 2, total - 1, total, total + 1}) {
      if (cap < 1) continue;
      SCOPED_TRACE(cap);
      const CycleEnumeration r = enumerate_simple_cycles(g, cap, 4);
      EXPECT_EQ(r.count, std::min(total, cap));
      EXPECT_EQ(r.capped, total >= cap);
      EXPECT_EQ(r.cycles.size(), std::min<std::size_t>(4, static_cast<std::size_t>(r.count)));
      const CycleEnumeration c = enumerate_simple_cycles(g, cap);
      EXPECT_EQ(c.count, std::min(total, cap));
      EXPECT_EQ(c.capped, total >= cap);
      EXPECT_TRUE(c.cycles.empty());
    }
  }
}

TEST(Cycles, CountOnlyMatchesBruteForceOracleOnChainSubdividedMultigraphs) {
  // The random multigraphs above with every arc drawn out into a chain, so
  // series reduction has chains to bypass: chains closing into self-loops,
  // parallel chains, and components that reduce to one ring all occur.
  Pcg32 rng(2025);
  ReductionCases seen;
  for (int i = 0; i < 400; ++i) {
    SCOPED_TRACE(i);
    const Digraph g = subdivided(random_multigraph(rng, i), rng);
    const ReductionCases cases = reduction_cases(g);
    seen.self_loop_closures += cases.self_loop_closures;
    seen.parallel_bypasses += cases.parallel_bypasses;
    seen.rings += cases.rings;
    const auto total = static_cast<std::int64_t>(brute_force_cycles(g).size());

    const CycleEnumeration counted = enumerate_simple_cycles(g, 100000);
    EXPECT_EQ(counted.count, total);
    EXPECT_FALSE(counted.capped);
    EXPECT_EQ(enumerate_simple_cycles(g, 100000, 1).count, total);
    for (const std::int64_t cap :
         {std::int64_t{1}, total / 2, total - 1, total, total + 1}) {
      if (cap < 1) continue;
      SCOPED_TRACE(cap);
      const CycleEnumeration c = enumerate_simple_cycles(g, cap);
      EXPECT_EQ(c.count, std::min(total, cap));
      EXPECT_EQ(c.capped, total >= cap);
    }
  }
  EXPECT_GT(seen.self_loop_closures, 0);
  EXPECT_GT(seen.parallel_bypasses, 0);
  EXPECT_GT(seen.rings, 0);
}

TEST(Cycles, CountOnlyChainsClosingOnTheirStartAreCycles) {
  // Branch vertex 0 with two chains that each return to it: two cycles,
  // both self-loops once the chains are bypassed. A cap of 1 stops on the
  // first of them.
  Digraph g(4);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 0);
  g.add_edge(0, 3);
  g.add_edge(3, 0);
  EXPECT_EQ(enumerate_simple_cycles(g, 1000).count, 2);
  const CycleEnumeration capped = enumerate_simple_cycles(g, 1);
  EXPECT_EQ(capped.count, 1);
  EXPECT_TRUE(capped.capped);
}

TEST(Cycles, CountOnlyParallelChainsAreDistinctCycles) {
  // 0 -> 2 directly and through chains 1 and 3, then back through chain 4:
  // three arcs 0 -> 2 after the bypass, three cycles.
  Digraph g(5);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(0, 3);
  g.add_edge(3, 2);
  g.add_edge(0, 2);
  g.add_edge(2, 4);
  g.add_edge(4, 0);
  EXPECT_EQ(enumerate_simple_cycles(g, 1000).count, 3);
  EXPECT_EQ(enumerate_simple_cycles(g, 1000, 10).count, 3);
}

TEST(Cycles, CountOnlyRingCountsOnce) {
  // Every vertex is a chain vertex: the component is one ring.
  Digraph g(5);
  for (int i = 0; i < 5; ++i) g.add_edge(i, (i + 1) % 5);
  const CycleEnumeration r = enumerate_simple_cycles(g, 1000);
  EXPECT_EQ(r.count, 1);
  EXPECT_FALSE(r.capped);
  const CycleEnumeration capped = enumerate_simple_cycles(g, 1);
  EXPECT_EQ(capped.count, 1);
  EXPECT_TRUE(capped.capped);
}

// Goldens: the stored-cycle sequence recorded from the recursive search
// that first shipped, so a rewrite must keep the enumeration order as well
// as the count.
TEST(Cycles, GoldenOrderOnCompleteDigraphK4) {
  Digraph g(4);
  for (int a = 0; a < 4; ++a) {
    for (int b = 0; b < 4; ++b) {
      if (a != b) g.add_edge(a, b);
    }
  }
  const CycleList golden = {
      {0, 1},       {0, 1, 2},    {0, 1, 2, 3}, {0, 1, 3},    {0, 1, 3, 2},
      {0, 2},       {0, 2, 1},    {0, 2, 1, 3}, {0, 2, 3},    {0, 2, 3, 1},
      {0, 3},       {0, 3, 1},    {0, 3, 1, 2}, {0, 3, 2},    {0, 3, 2, 1},
      {1, 2},       {1, 2, 3},    {1, 3},       {1, 3, 2},    {2, 3},
  };
  const CycleEnumeration r = enumerate_simple_cycles(g, 100000, 20);
  EXPECT_EQ(r.count, 20);
  EXPECT_FALSE(r.capped);
  EXPECT_EQ(r.cycles, golden);
}

TEST(Cycles, GoldenOrderOnChainHeavyKnot) {
  // Hubs 0, 5 and 9 joined into one sink SCC by single-successor chains, as
  // ownership arcs chain a worm's VCs in a CWG knot, with three cross chains,
  // four chords and a self-loop.
  Digraph g(16);
  const int arcs[][2] = {
      {0, 1},  {1, 2},   {2, 3},  {3, 4},   {4, 5},    // hub 0 -> hub 5
      {5, 6},  {6, 7},   {7, 8},  {8, 9},              // hub 5 -> hub 9
      {9, 10}, {10, 11}, {11, 0},                      // hub 9 -> hub 0
      {0, 12}, {12, 13}, {13, 9},                      // cross 0 -> 9
      {9, 14}, {14, 15}, {15, 5},                      // cross 9 -> 5
      {5, 2},  {7, 1},   {13, 13}, {11, 6}, {3, 12},
  };
  for (const auto& arc : arcs) g.add_edge(arc[0], arc[1]);
  const CycleList golden = {
      {13},
      {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11},
      {0, 1, 2, 3, 12, 13, 9, 10, 11},
      {0, 12, 13, 9, 10, 11},
      {1, 2, 3, 4, 5, 6, 7},
      {1, 2, 3, 12, 13, 9, 10, 11, 6, 7},
      {1, 2, 3, 12, 13, 9, 14, 15, 5, 6, 7},
      {2, 3, 4, 5},
      {2, 3, 12, 13, 9, 14, 15, 5},
      {5, 6, 7, 8, 9, 14, 15},
      {6, 7, 8, 9, 10, 11},
  };
  const CycleEnumeration r = enumerate_simple_cycles(g, 100000, 100);
  EXPECT_EQ(r.count, 11);
  EXPECT_FALSE(r.capped);
  EXPECT_EQ(r.cycles, golden);
  // The count-only path bypasses the chains and counts the same cycles.
  const CycleEnumeration counted = enumerate_simple_cycles(g, 100000);
  EXPECT_EQ(counted.count, 11);
  EXPECT_FALSE(counted.capped);
}

TEST(Cycles, LongRingNeedsNoDeepStack) {
  // One circuit through 200,000 vertices: the search walks a path that long
  // without recursing per vertex.
  constexpr int kN = 200000;
  Digraph g(kN);
  for (int i = 0; i < kN; ++i) g.add_edge(i, (i + 1) % kN);
  const CycleEnumeration r = enumerate_simple_cycles(g, 100000, 1);
  EXPECT_EQ(r.count, 1);
  EXPECT_FALSE(r.capped);
  ASSERT_EQ(r.cycles.size(), 1u);
  EXPECT_EQ(r.cycles[0].size(), static_cast<std::size_t>(kN));
}

}  // namespace
}  // namespace flexnet
