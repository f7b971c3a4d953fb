#include "core/scc.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

namespace flexnet {
namespace {

TEST(Scc, ChainIsAllSingletons) {
  Digraph g(4);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 3);
  const SccResult scc = strongly_connected_components(g);
  EXPECT_EQ(scc.num_components, 4);
  for (const int s : scc.size) EXPECT_EQ(s, 1);
}

TEST(Scc, CycleIsOneComponent) {
  Digraph g(3);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 0);
  const SccResult scc = strongly_connected_components(g);
  EXPECT_EQ(scc.num_components, 1);
  EXPECT_EQ(scc.size[0], 3);
}

TEST(Scc, TwoCyclesWithBridge) {
  // 0<->1 -> 2<->3 : two components, edges respect reverse-topological ids.
  Digraph g(4);
  g.add_edge(0, 1);
  g.add_edge(1, 0);
  g.add_edge(1, 2);
  g.add_edge(2, 3);
  g.add_edge(3, 2);
  const SccResult scc = strongly_connected_components(g);
  EXPECT_EQ(scc.num_components, 2);
  EXPECT_EQ(scc.component[0], scc.component[1]);
  EXPECT_EQ(scc.component[2], scc.component[3]);
  EXPECT_NE(scc.component[0], scc.component[2]);
}

TEST(Scc, ComponentsAreReverseTopological) {
  // Tarjan emits components in reverse topological order: every cross edge
  // goes from a higher component id to a lower one. The knot finder relies
  // only on explicit out-edge checks, but this property documents the
  // numbering and guards against regressions.
  Digraph g(6);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 0);  // SCC A
  g.add_edge(2, 3);
  g.add_edge(3, 4);
  g.add_edge(4, 3);  // SCC B
  g.add_edge(4, 5);  // singleton C
  const SccResult scc = strongly_connected_components(g);
  EXPECT_EQ(scc.num_components, 3);
  for (int v = 0; v < g.num_vertices(); ++v) {
    for (const int w : g.out(v)) {
      EXPECT_GE(scc.component[v], scc.component[w]);
    }
  }
}

TEST(Scc, SelfLoopIsItsOwnComponent) {
  Digraph g(2);
  g.add_edge(0, 0);
  g.add_edge(0, 1);
  const SccResult scc = strongly_connected_components(g);
  EXPECT_EQ(scc.num_components, 2);
  EXPECT_EQ(scc.size[static_cast<std::size_t>(scc.component[0])], 1);
}

TEST(Scc, ReachedListsEachComponentContiguously) {
  Digraph g(5);
  g.add_edge(1, 3);
  g.add_edge(3, 1);
  const SccResult scc = strongly_connected_components(g);
  ASSERT_EQ(scc.reached.size(), 5u);
  std::size_t at = 0;
  for (int c = 0; c < scc.num_components; ++c) {
    for (int i = 0; i < scc.size[static_cast<std::size_t>(c)]; ++i, ++at) {
      EXPECT_EQ(scc.component[static_cast<std::size_t>(scc.reached[at])], c);
    }
  }
  const int comp = scc.component[1];
  const auto first =
      std::find_if(scc.reached.begin(), scc.reached.end(),
                   [&](int v) { return scc.component[v] == comp; });
  std::vector<int> members(first, first + 2);
  std::sort(members.begin(), members.end());
  EXPECT_EQ(members, (std::vector<int>{1, 3}));
}

TEST(Scc, RootedSearchReachesOnlyTheForwardClosure) {
  // 0 -> 1 <-> 2 -> 3;  4 <-> 5 unreachable from 1.
  Digraph g(6);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 1);
  g.add_edge(2, 3);
  g.add_edge(4, 5);
  g.add_edge(5, 4);
  SccResult scc;
  SccScratch scratch;
  const std::vector<int> roots{1, 2, 1};  // repeats are allowed
  strongly_connected_components(g, roots, scc, scratch);
  EXPECT_EQ(scc.num_components, 2);
  std::vector<int> reached = scc.reached;
  std::sort(reached.begin(), reached.end());
  EXPECT_EQ(reached, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(scc.component[0], -1);
  EXPECT_EQ(scc.component[4], -1);
  EXPECT_EQ(scc.component[1], scc.component[2]);
  EXPECT_EQ(scc.size[static_cast<std::size_t>(scc.component[1])], 2);

  // A second call clears what the first reached, and the scratch is ready
  // for it: nothing of {1, 2, 3} survives a search from 4.
  strongly_connected_components(g, std::vector<int>{4}, scc, scratch);
  EXPECT_EQ(scc.num_components, 1);
  EXPECT_EQ(scc.size[0], 2);
  for (const int v : {0, 1, 2, 3}) EXPECT_EQ(scc.component[v], -1);
  EXPECT_EQ(scc.component[4], 0);
  EXPECT_EQ(scc.component[5], 0);
  for (const auto& v : scratch.visit) EXPECT_EQ(v.index, -1);

  strongly_connected_components(g, {}, scc, scratch);
  EXPECT_EQ(scc.num_components, 0);
  EXPECT_TRUE(scc.reached.empty());
  for (const int c : scc.component) EXPECT_EQ(c, -1);
}

TEST(Scc, RootedSearchFromEveryVertexMatchesTheFullSearch) {
  Digraph g(6);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 0);
  g.add_edge(2, 3);
  g.add_edge(3, 4);
  g.add_edge(4, 3);
  g.add_edge(4, 5);
  const SccResult full = strongly_connected_components(g);
  SccResult rooted;
  SccScratch scratch;
  const std::vector<int> all{0, 1, 2, 3, 4, 5};
  strongly_connected_components(g, all, rooted, scratch);
  EXPECT_EQ(rooted.num_components, full.num_components);
  EXPECT_EQ(rooted.component, full.component);
  EXPECT_EQ(rooted.size, full.size);
  EXPECT_EQ(rooted.reached, full.reached);
}

TEST(Scc, DisconnectedGraphCoversAllVertices) {
  Digraph g(100);
  for (int i = 0; i + 1 < 100; i += 2) {
    g.add_edge(i, i + 1);
    g.add_edge(i + 1, i);
  }
  const SccResult scc = strongly_connected_components(g);
  EXPECT_EQ(scc.num_components, 50);
  std::set<int> assigned(scc.component.begin(), scc.component.end());
  EXPECT_EQ(assigned.size(), 50u);
}

TEST(Scc, LargeCycleUsesNoRecursion) {
  // 200k-vertex cycle: would overflow the stack with a recursive Tarjan.
  constexpr int kN = 200000;
  Digraph g(kN);
  for (int i = 0; i < kN; ++i) g.add_edge(i, (i + 1) % kN);
  const SccResult scc = strongly_connected_components(g);
  EXPECT_EQ(scc.num_components, 1);
  EXPECT_EQ(scc.size[0], kN);
}

}  // namespace
}  // namespace flexnet
