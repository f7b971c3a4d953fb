// Shard-specific cases of the step-mode equivalence (the cross-mode suite is
// test_step_equivalence.cpp): uneven and degenerate shard counts, resharding
// mid-run with a monotonic composed epoch, the set_shards validation
// contract, and the one pin set every step mode must reach.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>

#include "lockstep.hpp"
#include "routing/routing.hpp"
#include "routing/selection.hpp"
#include "routing_variants.hpp"

namespace flexnet {
namespace {

TEST(ShardedStep, UnevenShardCounts) {
  // 64 nodes / 3 and / 7 shards: unequal slabs, shard boundaries that cut
  // rows mid-way. The canonical commits must not care.
  for (const int shards : {3, 7}) {
    SCOPED_TRACE(shards);
    run_lockstep(grid_config(RoutingKind::TFAR, 0.6), 1500, shards);
  }
}

TEST(ShardedStep, OneShardPerNode) {
  // Degenerate maximum: every router its own shard (64 workers on a 64-node
  // grid) — all transmit wakes cross shards.
  run_lockstep(grid_config(RoutingKind::DOR, 0.5), 800, 64);
}

/// Every step mode the pins must hold in.
constexpr StepMode kPinModes[] = {
    {"default"},           {"dense", true},       {"2 shards", false, 2},
    {"3 shards", false, 3}, {"4 shards", false, 4}, {"7 shards", false, 7},
    {"8 shards", false, 8},
};

TEST(ShardedStep, SemanticsPinned) {
  // Every mode runs the same deliver and route code and reaches the same
  // transmit decisions, so the lockstep pairs cannot see a drift in them.
  // These hashes pin the semantics (transmit-start credits, per-(message,
  // cycle) selection draws) on the lockstep grid config. The state bytes
  // include each blocked header's request set in routing-relation order
  // (DESIGN.md §3h), so a mismatch is a change of the semantics or of the
  // stored request order.
  const struct {
    RoutingKind routing;
    std::uint64_t hash;
  } pins[] = {
      {RoutingKind::DOR, 0x1cf6a215ccdce74aULL},
      {RoutingKind::TFAR, 0x2340509a33597b49ULL},
      {RoutingKind::TableMin, 0x2340509a33597b49ULL},
  };
  for (const StepMode& mode : kPinModes) {
    for (const auto& pin : pins) {
      SCOPED_TRACE(std::string(mode.name) + " / " +
                   std::string(to_string(pin.routing)));
      const ExperimentConfig cfg =
          with_mode(grid_config(pin.routing, 0.5), mode);
      EXPECT_EQ(state_hash_after(cfg, 2000), pin.hash);
    }
  }
}

TEST(ShardedStep, RoutingVariantsPinned) {
  // The remaining routing relations and selection policies, one hash each,
  // in kRoutingVariants order, under the same rules as SemanticsPinned.
  const std::uint64_t hashes[] = {
      0xe88d1b70c0d76c54ULL,
      0x63c2e862172ff23eULL,
      0xffd10e52a28fff6dULL,
      0xdb173c30b1929a86ULL,
      0xa77dd6efbbf0307aULL,
      0xd139258ae5f62925ULL,
  };
  static_assert(std::size(hashes) == std::size(kRoutingVariants));
  for (const StepMode& mode : kPinModes) {
    for (std::size_t i = 0; i < std::size(hashes); ++i) {
      SCOPED_TRACE(std::string(mode.name) + " / " +
                   std::string(kRoutingVariants[i].name));
      const ExperimentConfig cfg = with_mode(
          apply_variant(grid_config(RoutingKind::TFAR, 0.5),
                        kRoutingVariants[i]),
          mode);
      EXPECT_EQ(state_hash_after(cfg, 2000), hashes[i]);
    }
  }
}

TEST(ShardedStep, SetShardsValidation) {
  SimConfig cfg;
  cfg.topology.k = 4;
  cfg.topology.n = 1;
  NetworkDeps deps;
  deps.routing = make_routing(cfg);
  deps.selection = make_selection(cfg.selection);
  Network net(cfg, std::move(deps));
  EXPECT_EQ(net.shards(), 1);
  EXPECT_THROW(net.set_shards(-1), std::invalid_argument);
  EXPECT_THROW(net.set_shards(5), std::invalid_argument);  // > 4 nodes
  net.set_step_dense(true);
  EXPECT_THROW(net.set_shards(2), std::invalid_argument);
  net.set_shards(1);  // the dense oracle runs one shard
  EXPECT_EQ(net.shards(), 1);
  net.set_step_dense(false);
  net.set_shards(2);
  EXPECT_EQ(net.shards(), 2);
  net.set_shards(0);  // the same call as set_shards(1)
  EXPECT_EQ(net.shards(), 1);
}

TEST(ShardedStep, ReshardMidRunAndEpochMonotonicity) {
  // Flipping the shard count between steps preserves state, scheduling and
  // the monotonic composed epoch (terms fold into the base on reshard).
  const ExperimentConfig cfg = grid_config(RoutingKind::TFAR, 0.6);
  Simulation steady(cfg);
  Simulation hopping(cfg);
  const int plan[] = {1, 4, 2, 8, 0, 3};
  std::uint64_t last_epoch = 0;
  for (int leg = 0; leg < 6; ++leg) {
    hopping.network().set_shards(plan[leg]);
    EXPECT_GE(hopping.network().arc_epoch(), last_epoch);
    for (Cycle i = 0; i < 300; ++i) {
      step_cycle(steady);
      step_cycle(hopping);
    }
    last_epoch = hopping.network().arc_epoch();
    ASSERT_EQ(net_bytes(steady.network()), net_bytes(hopping.network()))
        << "diverged after leg " << leg;
    hopping.network().check_invariants();
  }
  EXPECT_EQ(steady.network().arc_epoch(), hopping.network().arc_epoch());
}

}  // namespace
}  // namespace flexnet
