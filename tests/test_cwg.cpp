#include "core/cwg.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "exp/experiment.hpp"

namespace flexnet {
namespace {

TEST(Cwg, SolidChainFollowsAcquisitionOrder) {
  const Cwg cwg(5, {{.id = 1, .held = {0, 2, 4}, .requests = {}}});
  EXPECT_TRUE(cwg.graph().has_edge(0, 2));
  EXPECT_TRUE(cwg.graph().has_edge(2, 4));
  EXPECT_FALSE(cwg.graph().has_edge(4, 0));
  EXPECT_EQ(cwg.num_ownership_arcs(), 2);
  EXPECT_EQ(cwg.num_request_arcs(), 0);
  EXPECT_EQ(cwg.num_blocked_messages(), 0);
}

TEST(Cwg, RequestArcsLeaveTheNewestHeldVc) {
  const Cwg cwg(6, {{.id = 1, .held = {0, 1}, .requests = {3, 5}},
                    {.id = 2, .held = {3}, .requests = {}}});
  EXPECT_TRUE(cwg.graph().has_edge(1, 3));
  EXPECT_TRUE(cwg.graph().has_edge(1, 5));
  EXPECT_FALSE(cwg.graph().has_edge(0, 3));
  EXPECT_EQ(cwg.num_request_arcs(), 2);
  EXPECT_EQ(cwg.num_blocked_messages(), 1);
}

TEST(Cwg, OwnerTracking) {
  const Cwg cwg(4, {{.id = 7, .held = {1, 2}, .requests = {}}});
  EXPECT_EQ(cwg.owner_of(1), 7);
  EXPECT_EQ(cwg.owner_of(2), 7);
  EXPECT_EQ(cwg.owner_of(0), kInvalidMessage);
  ASSERT_NE(cwg.find_message(7), nullptr);
  EXPECT_EQ(cwg.find_message(7)->held.size(), 2u);
  EXPECT_EQ(cwg.find_message(99), nullptr);
}

TEST(Cwg, InducedSubgraphsReuseOneIndex) {
  // Two messages waiting on each other, plus a bystander: each selection
  // gives the same subgraph as Digraph::induced, call after call.
  const Cwg cwg(6, {{.id = 1, .held = {0, 2}, .requests = {4}},
                    {.id = 2, .held = {4, 5}, .requests = {0}},
                    {.id = 3, .held = {1, 3}, .requests = {}}});
  const std::vector<VcId> knot{0, 2, 4, 5};
  for (int pass = 0; pass < 2; ++pass) {
    const Digraph sub = cwg.induced(knot);
    EXPECT_EQ(sub.num_edges(), 4);
    EXPECT_TRUE(sub.has_edge(0, 1));
    EXPECT_TRUE(sub.has_edge(1, 2));
    EXPECT_TRUE(sub.has_edge(2, 3));
    EXPECT_TRUE(sub.has_edge(3, 0));
    const Digraph other = cwg.induced(std::vector<VcId>{3, 1});
    EXPECT_EQ(other.num_edges(), 1);
    EXPECT_TRUE(other.has_edge(1, 0));
  }
}

TEST(Cwg, RejectsDoubleOwnership) {
  EXPECT_THROW(Cwg(4, {{.id = 1, .held = {0}, .requests = {}},
                       {.id = 2, .held = {0}, .requests = {}}}),
               std::invalid_argument);
}

TEST(Cwg, RejectsMessagesWithoutResources) {
  EXPECT_THROW(Cwg(4, {{.id = 1, .held = {}, .requests = {2}}}),
               std::invalid_argument);
}

TEST(Cwg, FromNetworkSnapshotsLiveState) {
  // Run a small congested network and validate the snapshot agrees with the
  // live message state at every level.
  ExperimentConfig cfg;
  cfg.sim.topology.k = 4;
  cfg.sim.topology.n = 2;
  cfg.sim.routing = RoutingKind::TFAR;
  cfg.sim.message_length = 8;
  cfg.traffic.load = 0.9;
  cfg.detector.recovery = RecoveryKind::None;
  Simulation sim(cfg);
  for (int i = 0; i < 500; ++i) {
    sim.injection().tick(sim.network());
    sim.network().step();
  }
  const Network& net = sim.network();
  const Cwg cwg = Cwg::from_network(net);

  EXPECT_EQ(cwg.num_vcs(), static_cast<int>(net.num_vcs()));
  EXPECT_EQ(cwg.messages().size(), net.active_messages().size());

  int blocked = 0;
  for (const MessageId id : net.active_messages()) {
    const Message& live = net.message(id);
    const CwgMessage* snap = cwg.find_message(id);
    ASSERT_NE(snap, nullptr);
    EXPECT_EQ(snap->held, live.held);
    if (live.blocked) {
      ++blocked;
      EXPECT_EQ(snap->requests, live.request_set);
      // Requests were recorded at the route phase, when every candidate was
      // owned by another message; the transmit phase that followed may have
      // freed one (it will be granted next cycle). Never owned by itself.
      for (const VcId want : snap->requests) {
        EXPECT_NE(net.vc(want).owner, id);
      }
    } else {
      EXPECT_TRUE(snap->requests.empty());
    }
    for (const VcId held : snap->held) {
      EXPECT_EQ(cwg.owner_of(held), id);
    }
  }
  EXPECT_EQ(cwg.num_blocked_messages(), blocked);
  EXPECT_GT(blocked, 0) << "load 0.9 on a 4x4 torus should congest";
}

}  // namespace
}  // namespace flexnet
