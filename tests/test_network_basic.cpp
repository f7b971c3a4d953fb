#include "sim/network.hpp"
#include "topo/torus.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>

#include "routing/routing.hpp"
#include "routing/selection.hpp"

namespace flexnet {
namespace {

std::unique_ptr<Network> make_network(SimConfig cfg) {
  return std::make_unique<Network>(cfg, NetworkDeps{nullptr, make_routing(cfg),
                                 make_selection(cfg.selection)});
}

SimConfig small_config() {
  SimConfig cfg;
  cfg.topology.k = 4;
  cfg.topology.n = 2;
  cfg.message_length = 8;
  cfg.routing = RoutingKind::DOR;
  return cfg;
}

TEST(NetworkBasic, ConstructionBuildsAllChannels) {
  const auto net = make_network(small_config());
  // 16 nodes x 2 dims x 2 dirs network channels + 16 injection + 16 ejection.
  EXPECT_EQ(net->num_network_channels(), 64u);
  EXPECT_EQ(net->num_channels(), 64u + 16 + 16);
  EXPECT_EQ(net->num_vcs(), 64u + 16 + 16);  // 1 VC everywhere

  EXPECT_EQ(net->phys(net->injection_channel(3)).kind, ChannelKind::Injection);
  EXPECT_EQ(net->phys(net->ejection_channel(3)).kind, ChannelKind::Ejection);
  EXPECT_EQ(net->phys(net->injection_channel(3)).src, 3);
}

TEST(NetworkBasic, VcTableMatchesChannelConfig) {
  SimConfig cfg = small_config();
  cfg.vcs = 3;
  cfg.injection_vcs = 2;
  cfg.ejection_vcs = 1;
  const auto net = make_network(cfg);
  EXPECT_EQ(net->num_vcs(), 64u * 3 + 16 * 2 + 16 * 1);
  const PhysChannel& pc = net->phys(0);
  EXPECT_EQ(pc.num_vcs, 3);
  for (int i = 0; i < pc.num_vcs; ++i) {
    const VcState& vc = net->vc(pc.first_vc + i);
    EXPECT_EQ(vc.channel, pc.id);
    EXPECT_EQ(vc.id, pc.first_vc + i);
    EXPECT_TRUE(vc.is_free());
    EXPECT_EQ(vc.buffer.capacity(), cfg.buffer_depth);
  }
}

TEST(NetworkBasic, SingleMessageDeliveredWithMinimalHops) {
  const auto net = make_network(small_config());
  const NodeId src = 0;
  const NodeId dst = torus_topology(net->topology()).coordinates().pack({2, 1});
  const MessageId id = net->enqueue_message(src, dst, 8);
  EXPECT_EQ(net->counters().generated, 1);

  for (int i = 0; i < 200 && net->counters().delivered == 0; ++i) {
    net->step();
    net->check_invariants();
  }
  const Message& msg = net->message(id);
  EXPECT_EQ(msg.status, MessageStatus::Delivered);
  EXPECT_EQ(msg.hops, net->topology().min_distance(src, dst));
  EXPECT_EQ(msg.flits_delivered, 8);
  EXPECT_EQ(net->counters().flits_delivered, 8);
  EXPECT_TRUE(msg.held.empty());
  EXPECT_TRUE(net->active_messages().empty());
  // All VCs released.
  for (std::size_t v = 0; v < net->num_vcs(); ++v) {
    EXPECT_TRUE(net->vc(static_cast<VcId>(v)).is_free());
  }
}

TEST(NetworkBasic, UncontendedLatencyIsPipelineDepth) {
  // One hop: inject (1 cycle/flit), route, transmit, eject. The tail flit of
  // an L-flit message needs L injection cycles, then the per-hop pipeline.
  const auto net = make_network(small_config());
  const NodeId dst = torus_topology(net->topology()).coordinates().pack({1, 0});
  const MessageId id = net->enqueue_message(0, dst, 8);
  while (net->message(id).status != MessageStatus::Delivered) {
    ASSERT_LT(net->now(), 100);
    net->step();
  }
  const Cycle latency = net->message(id).latency();
  // Lower bound: length + hops (wormhole pipeline); upper bound: generous.
  EXPECT_GE(latency, 8 + 1);
  EXPECT_LE(latency, 8 + 8);
}

TEST(NetworkBasic, SingleFlitMessage) {
  const auto net = make_network(small_config());
  const MessageId id = net->enqueue_message(0, 5, 1);
  for (int i = 0; i < 50 && net->message(id).status != MessageStatus::Delivered;
       ++i) {
    net->step();
    net->check_invariants();
  }
  EXPECT_EQ(net->message(id).status, MessageStatus::Delivered);
}

TEST(NetworkBasic, MessagesFromSameSourceSerializeThroughInjection) {
  const auto net = make_network(small_config());
  const MessageId a = net->enqueue_message(0, 2, 8);
  const MessageId b = net->enqueue_message(0, 2, 8);
  EXPECT_EQ(net->queued_message_count(), 2);
  EXPECT_EQ(net->source_queue_length(0), 2u);
  int steps = 0;
  while (net->counters().delivered < 2) {
    ASSERT_LT(++steps, 500);
    net->step();
  }
  // FIFO: the first queued message finishes first.
  EXPECT_LT(net->message(a).finished, net->message(b).finished);
}

TEST(NetworkBasic, RejectsInvalidMessages) {
  const auto net = make_network(small_config());
  EXPECT_THROW(net->enqueue_message(3, 3, 8), std::invalid_argument);
  EXPECT_THROW(net->enqueue_message(0, 1, 0), std::invalid_argument);
}

TEST(NetworkBasic, CapacityFormula) {
  SimConfig cfg;
  cfg.topology.k = 16;
  cfg.topology.n = 2;
  cfg.routing = RoutingKind::DOR;
  const auto net = make_network(cfg);
  // 1024 channels / (256 nodes x avg distance).
  const double avg = net->topology().average_distance();
  EXPECT_NEAR(net->capacity_flits_per_node(avg), 1024.0 / (256.0 * avg), 1e-12);
}

TEST(NetworkBasic, RemoveMessageFreesEverything) {
  const auto net = make_network(small_config());
  const MessageId id = net->enqueue_message(0, 10, 8);
  for (int i = 0; i < 4; ++i) net->step();  // partially in flight
  ASSERT_EQ(net->message(id).status, MessageStatus::InFlight);
  ASSERT_FALSE(net->message(id).held.empty());

  net->remove_message(id);
  EXPECT_EQ(net->message(id).status, MessageStatus::Recovered);
  EXPECT_EQ(net->counters().recovered, 1);
  EXPECT_TRUE(net->active_messages().empty());
  for (std::size_t v = 0; v < net->num_vcs(); ++v) {
    EXPECT_TRUE(net->vc(static_cast<VcId>(v)).is_free());
  }
  net->check_invariants();
  // Cannot remove twice.
  EXPECT_THROW(net->remove_message(id), std::invalid_argument);
}

TEST(NetworkBasic, RequiresPolicies) {
  SimConfig cfg = small_config();
  EXPECT_THROW(
      Network(cfg, NetworkDeps{nullptr, nullptr, make_selection(cfg.selection)}),
      std::invalid_argument);
  EXPECT_THROW(Network(cfg, NetworkDeps{nullptr, make_routing(cfg), nullptr}),
               std::invalid_argument);
}

}  // namespace
}  // namespace flexnet
