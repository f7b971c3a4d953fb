#include "core/dot.hpp"

#include <gtest/gtest.h>

namespace flexnet {
namespace {

TEST(Dot, EmptyGraphIsValidDot) {
  const std::string dot = cwg_to_dot(Cwg(4, {}));
  EXPECT_NE(dot.find("digraph cwg {"), std::string::npos);
  EXPECT_NE(dot.find("}"), std::string::npos);
  EXPECT_EQ(dot.find("->"), std::string::npos);
}

TEST(Dot, SolidAndDashedArcs) {
  const Cwg cwg(6, {{.id = 1, .held = {0, 2}, .requests = {4}},
                    {.id = 2, .held = {4}, .requests = {}}});
  const std::string dot = cwg_to_dot(cwg);
  EXPECT_NE(dot.find("c0 -> c2 [label=\"m1\"]"), std::string::npos);
  EXPECT_NE(dot.find("c2 -> c4 [style=dashed label=\"m1\"]"), std::string::npos);
  // Isolated VCs (1, 3, 5) are omitted.
  EXPECT_EQ(dot.find("c1;"), std::string::npos);
  EXPECT_EQ(dot.find("c5;"), std::string::npos);
}

TEST(Dot, KnotVerticesHighlighted) {
  const Cwg cwg(4, {{.id = 1, .held = {0}, .requests = {1}},
                    {.id = 2, .held = {1}, .requests = {0}}});
  const auto knots = find_knots(cwg);
  ASSERT_EQ(knots.size(), 1u);
  const std::string dot = cwg_to_dot(cwg, knots);
  EXPECT_NE(dot.find("c0 [style=filled fillcolor=salmon]"), std::string::npos);
  EXPECT_NE(dot.find("c1 [style=filled fillcolor=salmon]"), std::string::npos);
}

TEST(Dot, NoHighlightWithoutKnots) {
  const Cwg cwg(4, {{.id = 1, .held = {0}, .requests = {1}},
                    {.id = 2, .held = {1}, .requests = {}}});
  const std::string dot = cwg_to_dot(cwg, find_knots(cwg));
  EXPECT_EQ(dot.find("salmon"), std::string::npos);
}

}  // namespace
}  // namespace flexnet
