#include "core/graph.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <vector>

namespace flexnet {
namespace {

TEST(Digraph, EmptyGraph) {
  const Digraph g(0);
  EXPECT_EQ(g.num_vertices(), 0);
  EXPECT_EQ(g.num_edges(), 0);
}

TEST(Digraph, AddAndQueryEdges) {
  Digraph g(4);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(1, 3);
  EXPECT_EQ(g.num_edges(), 3);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(1, 3));
  EXPECT_FALSE(g.has_edge(3, 1));
  EXPECT_EQ(g.out(1).size(), 2u);
  EXPECT_EQ(g.out(3).size(), 0u);
}

TEST(Digraph, SelfLoopsAllowed) {
  Digraph g(2);
  g.add_edge(0, 0);
  EXPECT_TRUE(g.has_edge(0, 0));
}

TEST(Digraph, BoundsChecked) {
  Digraph g(2);
  EXPECT_THROW(g.add_edge(-1, 0), std::out_of_range);
  EXPECT_THROW(g.add_edge(0, 2), std::out_of_range);
}

TEST(Digraph, InducedSubgraphRemapsVertices) {
  Digraph g(5);
  g.add_edge(0, 2);
  g.add_edge(2, 4);
  g.add_edge(4, 0);
  g.add_edge(1, 2);  // 1 excluded below
  g.add_edge(2, 3);  // 3 excluded below

  const std::vector<int> keep{0, 2, 4};
  const Digraph sub = g.induced(keep);
  EXPECT_EQ(sub.num_vertices(), 3);
  EXPECT_EQ(sub.num_edges(), 3);
  // keep[0]=0, keep[1]=2, keep[2]=4.
  EXPECT_TRUE(sub.has_edge(0, 1));
  EXPECT_TRUE(sub.has_edge(1, 2));
  EXPECT_TRUE(sub.has_edge(2, 0));
  EXPECT_FALSE(sub.has_edge(1, 0));
}

TEST(Digraph, InducedEmptySelection) {
  Digraph g(3);
  g.add_edge(0, 1);
  const Digraph sub = g.induced(std::vector<int>{});
  EXPECT_EQ(sub.num_vertices(), 0);
  EXPECT_EQ(sub.num_edges(), 0);
}

TEST(Digraph, InducedWithIndexMatchesAndLeavesIndexClean) {
  Digraph g(6);
  g.add_edge(5, 1);
  g.add_edge(1, 3);
  g.add_edge(3, 5);
  g.add_edge(3, 3);
  g.add_edge(3, 5);  // parallel arcs survive
  g.add_edge(1, 0);  // 0 excluded below

  // The caller's index may start short; it is grown with -1, and every
  // entry is -1 again afterwards, so the next selection reuses it as is.
  std::vector<int> index;
  const std::vector<int> keep{5, 1, 3};
  const Digraph sub = g.induced(keep, index);
  EXPECT_EQ(index, std::vector<int>(6, -1));
  const Digraph plain = g.induced(keep);
  ASSERT_EQ(sub.num_vertices(), plain.num_vertices());
  for (int v = 0; v < sub.num_vertices(); ++v) {
    EXPECT_TRUE(std::equal(sub.out(v).begin(), sub.out(v).end(),
                           plain.out(v).begin(), plain.out(v).end()));
  }
  EXPECT_EQ(sub.num_edges(), 5);

  const Digraph pair = g.induced(std::vector<int>{0, 1}, index);
  EXPECT_EQ(pair.num_edges(), 1);
  EXPECT_TRUE(pair.has_edge(1, 0));
  EXPECT_EQ(index, std::vector<int>(6, -1));
}

TEST(Digraph, InducedRejectsRepeatedVertexAndStaysClean) {
  Digraph g(4);
  g.add_edge(0, 1);
  std::vector<int> index;
  EXPECT_THROW((void)g.induced(std::vector<int>{2, 0, 2}, index),
               std::invalid_argument);
  EXPECT_EQ(index, std::vector<int>(4, -1));
  EXPECT_THROW((void)g.induced(std::vector<int>{1, 1}), std::invalid_argument);
}

}  // namespace
}  // namespace flexnet
