// Parameterized sweep over message length x buffer depth: the wormhole /
// buffered-wormhole / virtual-cut-through spectrum must deliver correctly at
// every point, conserve flits, and keep the held-chain length consistent
// with the compaction the buffers allow. Every point also runs a 3-shard
// and a dense-sweep twin in lockstep, which must keep byte-identical state:
// a 1-flit message makes one push both release its upstream VC and file a
// pending head, and a 1-deep buffer puts every hop under the credit rule.
#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>

#include "core/detector.hpp"
#include "lockstep.hpp"
#include "routing/routing.hpp"
#include "routing/selection.hpp"
#include "sim/network.hpp"
#include "traffic/injection.hpp"

namespace flexnet {
namespace {

/// One step mode's network with its own arrivals and detector.
struct Rig {
  Rig(const SimConfig& cfg, const TrafficConfig& traffic, bool dense,
      int shards)
      : net(cfg, NetworkDeps{nullptr, make_routing(cfg),
                             make_selection(cfg.selection)}),
        injection(net, traffic, cfg.seed),
        // Deadlocks are possible at any length with 1 VC (short messages
        // raise the message rate sharply); recovery keeps the sweep
        // drainable.
        detector(DetectorConfig{}, cfg.seed) {
    net.set_step_dense(dense);
    net.set_shards(shards);
  }

  /// Injects (when asked), steps and detects one cycle; returns the verdict.
  int step(bool inject) {
    if (inject) injection.tick(net);
    net.step();
    return detector.tick(net);
  }

  Network net;
  InjectionProcess injection;
  DeadlockDetector detector;
};

class LengthSweep : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(LengthSweep, DeliversAndConservesAcrossTheSwitchingSpectrum) {
  const auto [length, buffer] = GetParam();
  SimConfig cfg;
  cfg.topology.k = 4;
  cfg.topology.n = 2;
  cfg.routing = RoutingKind::TFAR;
  cfg.message_length = length;
  cfg.buffer_depth = buffer;
  cfg.seed = 21;
  TrafficConfig traffic;
  traffic.load = 0.2;
  Rig base(cfg, traffic, false, 0);
  Rig sharded(cfg, traffic, false, 3);
  Rig dense(cfg, traffic, true, 0);
  const Network& net = base.net;

  const auto lockstep = [&](int cycle, bool inject) {
    const int verdict = base.step(inject);
    ASSERT_EQ(sharded.step(inject), verdict) << "3 shards, cycle " << cycle;
    ASSERT_EQ(dense.step(inject), verdict) << "dense, cycle " << cycle;
    if (cycle % 300 != 0) return;
    ASSERT_EQ(net_bytes(net), net_bytes(sharded.net))
        << "3 shards, cycle " << cycle;
    ASSERT_EQ(net_bytes(net), net_bytes(dense.net)) << "dense, cycle " << cycle;
  };
  int cycle = 0;
  for (int i = 0; i < 1200; ++i, ++cycle) {
    ASSERT_NO_FATAL_FAILURE(lockstep(cycle, true));
    if (i % 40 == 0) net.check_invariants();
  }
  for (int i = 0; i < 6000 && !net.active_messages().empty(); ++i, ++cycle) {
    ASSERT_NO_FATAL_FAILURE(lockstep(cycle, false));
  }
  EXPECT_EQ(net_bytes(net), net_bytes(sharded.net));
  EXPECT_EQ(net_bytes(net), net_bytes(dense.net));
  sharded.net.check_invariants();
  dense.net.check_invariants();

  ASSERT_TRUE(net.active_messages().empty());
  EXPECT_GT(net.counters().delivered, 20);
  EXPECT_EQ(net.counters().delivered + net.counters().recovered,
            net.counters().generated);
  for (std::size_t id = 0; id < net.num_messages(); ++id) {
    const Message& msg = net.message(static_cast<MessageId>(id));
    if (msg.status != MessageStatus::Delivered) continue;
    EXPECT_EQ(msg.flits_delivered, length);
    EXPECT_EQ(msg.hops, net.topology().min_distance(msg.src, msg.dst));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Spectrum, LengthSweep,
    ::testing::Combine(
        /*length*/ ::testing::Values(1, 2, 5, 32),
        /*buffer*/ ::testing::Values(1, 2, 8, 32)),
    [](const ::testing::TestParamInfo<std::tuple<int, int>>& info) {
      return "len" + std::to_string(std::get<0>(info.param)) + "_buf" +
             std::to_string(std::get<1>(info.param));
    });

// A message never holds more VCs than its footprint requires: roughly
// ceil(length / buffer) + 2 (injection VC + the hop being entered), bounded
// by the path length.
TEST(LengthFootprint, HeldChainBoundedByCompaction) {
  SimConfig cfg;
  cfg.topology.k = 8;
  cfg.topology.n = 1;
  cfg.routing = RoutingKind::DOR;
  cfg.message_length = 8;
  cfg.buffer_depth = 4;
  Network net(cfg, NetworkDeps{nullptr, make_routing(cfg),
                                 make_selection(cfg.selection)});

  // A blocker occupies the ejection path at node 4 so the probe compacts.
  net.enqueue_message(3, 4, 8);
  const MessageId probe = net.enqueue_message(0, 4, 8);
  std::size_t max_held = 0;
  for (int i = 0; i < 120; ++i) {
    net.step();
    max_held = std::max(max_held, net.message(probe).held.size());
  }
  // 8 flits / 4-deep buffers: 2 buffers of payload + injection + frontier.
  EXPECT_LE(max_held, 5u);
  net.check_invariants();
}

}  // namespace
}  // namespace flexnet
