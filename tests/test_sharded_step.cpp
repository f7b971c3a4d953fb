// Sharded-vs-1-shard determinism: the parallel stepping engine must be
// byte-identical across EVERY shard count — per-cycle network state bytes,
// detector verdicts, snapshots, traces, metrics streams and telemetry
// manifests. The 1-shard run is the oracle (the sharded engine's semantics
// differ from the serial engine's by design: cycle-start transmit credits and
// hashed selection draws; DESIGN.md §3j). The suite locksteps shard counts
// for DOR, TFAR and TableMin across light / medium / saturation load, adds
// multi-VC adaptive routing with faults, replays the committed deadlock
// corpus, crosses shard counts over a mid-run checkpoint, and pins the
// set_shards validation contract.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/detector.hpp"
#include "exp/experiment.hpp"
#include "routing/routing.hpp"
#include "routing/selection.hpp"
#include "routing_variants.hpp"
#include "sim/network.hpp"
#include "snapshot/snapshot.hpp"
#include "traffic/injection.hpp"
#include "util/binio.hpp"

#ifndef FLEXNET_CORPUS_DIR
#error "FLEXNET_CORPUS_DIR must point at the committed tests/corpus directory"
#endif

namespace flexnet {
namespace {

std::vector<std::uint8_t> net_bytes(const Network& net) {
  BinWriter out;
  net.save_state(out);
  return out.bytes();
}

std::vector<std::uint8_t> detector_bytes(const DeadlockDetector& det) {
  BinWriter out;
  det.save_state(out);
  return out.bytes();
}

ExperimentConfig grid_config(RoutingKind routing, double load) {
  ExperimentConfig cfg;
  cfg.sim.topology.k = 8;
  cfg.sim.topology.n = 2;
  cfg.sim.vcs = 1;  // one VC per channel: wrap-around routing can deadlock
  cfg.sim.routing = routing;
  cfg.sim.message_length = 8;
  cfg.sim.seed = 13;
  cfg.traffic.load = load;
  cfg.detector.interval = 5;
  cfg.detector.recovery = RecoveryKind::RemoveOldest;
  return cfg;
}

/// Locksteps the same configuration at 1 shard and at `shards` shards,
/// asserting the full serialized network state matches periodically and every
/// detector verdict matches each cycle.
void run_lockstep(ExperimentConfig cfg, Cycle cycles, int shards) {
  cfg.run.shards = 1;
  ExperimentConfig wide_cfg = cfg;
  wide_cfg.run.shards = shards;
  Simulation one(cfg);
  Simulation wide(wide_cfg);
  ASSERT_EQ(one.network().shards(), 1);
  ASSERT_EQ(wide.network().shards(), shards);

  for (Cycle i = 0; i < cycles; ++i) {
    one.injection().tick(one.network());
    one.network().step();
    const int one_verdict = one.detector().tick(one.network());
    wide.injection().tick(wide.network());
    wide.network().step();
    const int wide_verdict = wide.detector().tick(wide.network());
    ASSERT_EQ(one_verdict, wide_verdict) << "diverged at cycle " << i;
    if (i % 250 == 0) {
      ASSERT_EQ(net_bytes(one.network()), net_bytes(wide.network()))
          << "state diverged by cycle " << i;
    }
  }

  EXPECT_EQ(net_bytes(one.network()), net_bytes(wide.network()));
  EXPECT_EQ(detector_bytes(one.detector()), detector_bytes(wide.detector()));
  EXPECT_EQ(one.network().counters().delivered,
            wide.network().counters().delivered);
  EXPECT_EQ(one.network().counters().recovered,
            wide.network().counters().recovered);
  // The composed epoch (base + per-shard terms) counts each CWG event exactly
  // once regardless of which term absorbed it.
  EXPECT_EQ(one.network().arc_epoch(), wide.network().arc_epoch());
  EXPECT_GT(one.network().counters().delivered, 0);

  // Snapshots never record the execution strategy: both sides encode
  // byte-identically (and identically to what a serial run would restore).
  EXPECT_EQ(encode_snapshot(one.make_checkpoint()),
            encode_snapshot(wide.make_checkpoint()));
}

TEST(ShardedStep, DorLightMediumSaturation) {
  for (const double load : {0.1, 0.5, 0.9}) {
    SCOPED_TRACE(load);
    run_lockstep(grid_config(RoutingKind::DOR, load), 2500, 8);
  }
}

TEST(ShardedStep, TfarLightMediumSaturation) {
  for (const double load : {0.1, 0.5, 0.9}) {
    SCOPED_TRACE(load);
    run_lockstep(grid_config(RoutingKind::TFAR, load), 2500, 8);
  }
}

TEST(ShardedStep, TableMinLightMediumSaturation) {
  for (const double load : {0.1, 0.5, 0.9}) {
    SCOPED_TRACE(load);
    run_lockstep(grid_config(RoutingKind::TableMin, load), 2500, 8);
  }
}

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

TEST(ShardedStep, MultiVcAdaptiveWithFaults) {
  // Deeper per-channel VC rotation, misroute-capable selection and faulted
  // links: arbitration cursors and hashed selection draws must line up.
  ExperimentConfig cfg = grid_config(RoutingKind::TFAR, 0.6);
  cfg.sim.vcs = 3;
  cfg.sim.link_fault_fraction = 0.05;
  run_lockstep(cfg, 2000, 8);
}

TEST(ShardedStep, CommittedCorpusReplaysAcrossShardCounts) {
  std::vector<std::string> files;
  for (const auto& entry :
       std::filesystem::directory_iterator(FLEXNET_CORPUS_DIR)) {
    if (entry.path().extension() == ".snap") {
      files.push_back(entry.path().string());
    }
  }
  std::sort(files.begin(), files.end());
  ASSERT_FALSE(files.empty());

  for (const std::string& path : files) {
    SCOPED_TRACE(path);
    const Snapshot snap = read_snapshot_file(path);
    RestoredSim one = restore_snapshot(snap);
    RestoredSim wide = restore_snapshot(snap);
    one.net->set_shards(1);
    wide.net->set_shards(8);
    // Restore rebuilds the per-shard active sets from the captured knot: the
    // very first sharded step must see the blocked channels.
    DeadlockDetector one_det(DetectorConfig{.interval = 1}, 99);
    DeadlockDetector wide_det(DetectorConfig{.interval = 1}, 99);

    for (int i = 0; i < 300; ++i) {
      one.injection->tick(*one.net);
      one.net->step();
      const int one_verdict = one_det.tick(*one.net);
      wide.injection->tick(*wide.net);
      wide.net->step();
      const int wide_verdict = wide_det.tick(*wide.net);
      ASSERT_EQ(one_verdict, wide_verdict) << "diverged at step " << i;
    }
    EXPECT_GT(one_det.total_deadlocks(), 0) << "capture should re-deadlock";
    EXPECT_EQ(net_bytes(*one.net), net_bytes(*wide.net));
    EXPECT_EQ(detector_bytes(one_det), detector_bytes(wide_det));
  }
}

TEST(ShardedStep, CheckpointCrossesShardCounts) {
  // A checkpoint captured at 4 shards resumes at 1 and at 8: the shard count
  // is an execution detail the format never records.
  ExperimentConfig cfg = grid_config(RoutingKind::DOR, 0.7);
  cfg.run.shards = 4;
  Simulation original(cfg);
  for (Cycle i = 0; i < 1500; ++i) {
    original.injection().tick(original.network());
    original.network().step();
    original.detector().tick(original.network());
  }

  const Snapshot snap = original.make_checkpoint();
  RestoredSim narrow = restore_snapshot(snap);
  narrow.net->set_shards(1);
  RestoredSim wide = restore_snapshot(snap);
  wide.net->set_shards(8);
  EXPECT_EQ(net_bytes(*narrow.net), net_bytes(original.network()));
  EXPECT_EQ(net_bytes(*wide.net), net_bytes(original.network()));

  for (Cycle i = 0; i < 800; ++i) {
    original.injection().tick(original.network());
    original.network().step();
    const int original_verdict = original.detector().tick(original.network());
    narrow.injection->tick(*narrow.net);
    narrow.net->step();
    const int narrow_verdict = narrow.detector->tick(*narrow.net);
    wide.injection->tick(*wide.net);
    wide.net->step();
    const int wide_verdict = wide.detector->tick(*wide.net);
    ASSERT_EQ(original_verdict, narrow_verdict) << "diverged at cycle " << i;
    ASSERT_EQ(original_verdict, wide_verdict) << "diverged at cycle " << i;
  }
  EXPECT_EQ(net_bytes(*narrow.net), net_bytes(original.network()));
  EXPECT_EQ(net_bytes(*wide.net), net_bytes(original.network()));
}

TEST(ShardedStep, RecoveryWakeupsDrainTheNetwork) {
  // 4-node unidirectional ring, every node sending two hops ahead: a
  // permanent deadlock. remove_message() must route its channel wakeups into
  // the owning shards' sets, or the survivors never drain.
  SimConfig cfg;
  cfg.topology.k = 4;
  cfg.topology.n = 1;
  cfg.topology.bidirectional = false;
  cfg.routing = RoutingKind::DOR;
  cfg.message_length = 8;
  cfg.buffer_depth = 2;
  NetworkDeps deps;
  deps.routing = make_routing(cfg);
  deps.selection = make_selection(cfg.selection);
  Network net(cfg, std::move(deps));
  net.set_shards(2);
  std::vector<MessageId> ids;
  for (NodeId n = 0; n < 4; ++n) {
    ids.push_back(net.enqueue_message(n, (n + 2) % 4, 8));
  }
  for (int i = 0; i < 200; ++i) net.step();
  ASSERT_EQ(net.counters().delivered, 0) << "ring should be deadlocked";
  for (const MessageId id : ids) {
    ASSERT_TRUE(net.message_immobile(id));
  }

  net.remove_message(ids.front());
  for (int i = 0; i < 500 && net.counters().delivered < 3; ++i) net.step();
  EXPECT_EQ(net.counters().delivered, 3)
      << "survivors did not drain after recovery";
  EXPECT_EQ(net.counters().recovered, 1);
  net.check_invariants();
}

/// FNV-1a over the serialized network state after `cycles` lockstep cycles
/// (inject, step, detect) of `cfg`.
std::uint64_t state_hash_after(const ExperimentConfig& cfg, Cycle cycles) {
  Simulation sim(cfg);
  for (Cycle i = 0; i < cycles; ++i) {
    sim.injection().tick(sim.network());
    sim.network().step();
    sim.detector().tick(sim.network());
  }
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const std::uint8_t byte : net_bytes(sim.network())) {
    h ^= byte;
    h *= 0x100000001b3ULL;
  }
  return h;
}

TEST(ShardedStep, ShardedSemanticsPinned) {
  // 1 and N shards run the same deliver, route and transmit code, so the
  // lockstep pairs above cannot see a drift in it. These hashes pin the
  // sharded semantics (cycle-start transmit credits, per-(message, cycle)
  // selection draws) on the lockstep grid config at 1 shard; a mismatch is
  // a semantic change.
  const struct {
    RoutingKind routing;
    std::uint64_t hash;
  } pins[] = {
      {RoutingKind::DOR, 0x1cf6a215ccdce74aULL},
      {RoutingKind::TFAR, 0xb4e291ba3cc42909ULL},
      {RoutingKind::TableMin, 0xb4e291ba3cc42909ULL},
  };
  for (const auto& pin : pins) {
    SCOPED_TRACE(to_string(pin.routing));
    ExperimentConfig cfg = grid_config(pin.routing, 0.5);
    cfg.run.shards = 1;
    EXPECT_EQ(state_hash_after(cfg, 2000), pin.hash);
  }
}

TEST(ShardedStep, ShardedRoutingVariantsPinned) {
  // The remaining routing relations and selection policies at 1 shard, one
  // hash each, in kRoutingVariants order. Recorded before blocked headers
  // replayed a memoized route, which must leave every one unchanged.
  const std::uint64_t hashes[] = {
      0xe88d1b70c0d76c54ULL,
      0x9393f0dc3dc85c12ULL,
      0x93e029a61916fecdULL,
      0xae3a969252c1b5f6ULL,
      0xa77dd6efbbf0307aULL,
      0xd139258ae5f62925ULL,
  };
  static_assert(std::size(hashes) == std::size(kRoutingVariants));
  for (std::size_t i = 0; i < std::size(hashes); ++i) {
    SCOPED_TRACE(kRoutingVariants[i].name);
    ExperimentConfig cfg = apply_variant(grid_config(RoutingKind::TFAR, 0.5),
                                         kRoutingVariants[i]);
    cfg.run.shards = 1;
    EXPECT_EQ(state_hash_after(cfg, 2000), hashes[i]);
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
  EXPECT_EQ(net.shards(), 0);
  EXPECT_THROW(net.set_shards(-1), std::invalid_argument);
  EXPECT_THROW(net.set_shards(5), std::invalid_argument);  // > 4 nodes
  net.set_step_dense(true);
  EXPECT_THROW(net.set_shards(2), std::invalid_argument);
  net.set_step_dense(false);
  net.set_shards(2);
  EXPECT_EQ(net.shards(), 2);
  net.set_shards(0);  // back to the serial engine
  EXPECT_EQ(net.shards(), 0);
}

TEST(ShardedStep, ReshardMidRunAndEpochMonotonicity) {
  // Flipping the shard count between steps preserves state, scheduling and
  // the monotonic composed epoch (terms fold into the base on reshard).
  ExperimentConfig cfg = grid_config(RoutingKind::TFAR, 0.6);
  cfg.run.shards = 1;
  ExperimentConfig hop_cfg = cfg;
  Simulation steady(cfg);
  Simulation hopping(hop_cfg);
  const int plan[] = {1, 4, 2, 8, 1, 3};
  std::uint64_t last_epoch = 0;
  for (int leg = 0; leg < 6; ++leg) {
    hopping.network().set_shards(plan[leg]);
    EXPECT_GE(hopping.network().arc_epoch(), last_epoch);
    for (Cycle i = 0; i < 300; ++i) {
      steady.injection().tick(steady.network());
      steady.network().step();
      steady.detector().tick(steady.network());
      hopping.injection().tick(hopping.network());
      hopping.network().step();
      hopping.detector().tick(hopping.network());
    }
    last_epoch = hopping.network().arc_epoch();
    ASSERT_EQ(net_bytes(steady.network()), net_bytes(hopping.network()))
        << "diverged after leg " << leg;
    hopping.network().check_invariants();
  }
  EXPECT_EQ(steady.network().arc_epoch(), hopping.network().arc_epoch());
}

/// Removes the manifest's "profile" object — the only block whose values are
/// wall-clock dependent — by brace-balancing from its key.
std::string strip_profile(std::string text) {
  const std::size_t key = text.find("\"profile\":");
  if (key == std::string::npos) return text;
  std::size_t open = text.find('{', key);
  int depth = 0;
  std::size_t end = open;
  for (; end < text.size(); ++end) {
    if (text[end] == '{') ++depth;
    if (text[end] == '}' && --depth == 0) break;
  }
  text.erase(key, end - key + 1);
  return text;
}

std::string read_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

TEST(ShardedStep, ManifestAndMetricsStreamsByteIdentical) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "flexnet_sharded_step";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  ExperimentConfig cfg = grid_config(RoutingKind::TFAR, 0.6);
  cfg.run.warmup = 500;
  cfg.run.measure = 2000;
  cfg.obs.collect = true;
  cfg.obs.interval = 50;

  ExperimentConfig one_cfg = cfg;
  one_cfg.run.shards = 1;
  one_cfg.telemetry.manifest_path = (dir / "one.json").string();
  one_cfg.obs.metrics_path = (dir / "one.ndjson").string();
  ExperimentConfig wide_cfg = cfg;
  wide_cfg.run.shards = 8;
  wide_cfg.telemetry.manifest_path = (dir / "wide.json").string();
  wide_cfg.obs.metrics_path = (dir / "wide.ndjson").string();

  const ExperimentResult one_result = run_experiment(one_cfg);
  const ExperimentResult wide_result = run_experiment(wide_cfg);
  EXPECT_EQ(one_result.window.delivered, wide_result.window.delivered);
  EXPECT_EQ(one_result.window.deadlocks, wide_result.window.deadlocks);

  // The metrics NDJSON stream carries only simulation-derived values and must
  // match byte for byte; the manifest matches once its profiler timings (the
  // one wall-clock block) are stripped and the self-referential metrics path
  // is neutralized.
  EXPECT_EQ(read_file(dir / "one.ndjson"), read_file(dir / "wide.ndjson"));
  const auto neutralize = [](std::string text, const std::string& path) {
    const std::size_t at = text.find(path);
    if (at != std::string::npos) text.replace(at, path.size(), "<metrics>");
    return text;
  };
  const std::string one_manifest = neutralize(
      strip_profile(read_file(dir / "one.json")), one_cfg.obs.metrics_path);
  const std::string wide_manifest = neutralize(
      strip_profile(read_file(dir / "wide.json")), wide_cfg.obs.metrics_path);
  ASSERT_FALSE(one_manifest.empty());
  EXPECT_EQ(one_manifest, wide_manifest);
  std::filesystem::remove_all(dir);
}

TEST(ShardedStep, BinaryTracesByteIdentical) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "flexnet_sharded_trace";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  ExperimentConfig cfg = grid_config(RoutingKind::TFAR, 0.7);
  cfg.run.warmup = 300;
  cfg.run.measure = 1200;

  ExperimentConfig one_cfg = cfg;
  one_cfg.run.shards = 1;
  one_cfg.trace.binary_path = (dir / "one.trace").string();
  ExperimentConfig wide_cfg = cfg;
  wide_cfg.run.shards = 6;
  wide_cfg.trace.binary_path = (dir / "wide.trace").string();

  (void)run_experiment(one_cfg);
  (void)run_experiment(wide_cfg);
  const std::string one_trace = read_file(dir / "one.trace");
  ASSERT_FALSE(one_trace.empty());
  EXPECT_EQ(one_trace, read_file(dir / "wide.trace"));
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace flexnet
