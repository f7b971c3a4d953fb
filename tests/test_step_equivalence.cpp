// Dense-vs-event step equivalence: the activity-gated scheduler (the default)
// must be bit-identical to the dense per-cycle sweep (--step-dense) in every
// observable way — per-cycle network state bytes, detector verdicts, RNG
// consumption, snapshots, and telemetry manifests. The suite locksteps the
// two modes for DOR, TFAR, and TableMin at light / medium / saturation load,
// replays the committed deadlock corpus both ways, crosses modes over a
// mid-run checkpoint, and pins the recovery-wakeup contract: a network that
// just had a message removed must drain without a dense sweep.
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

/// Runs the same configuration event-driven and dense in lockstep, asserting
/// the full serialized network state matches periodically and every detector
/// verdict matches each cycle.
void run_lockstep(const ExperimentConfig& cfg, Cycle cycles) {
  ExperimentConfig dense_cfg = cfg;
  dense_cfg.run.step_dense = true;
  Simulation event(cfg);
  Simulation dense(dense_cfg);
  ASSERT_FALSE(event.network().step_dense());
  ASSERT_TRUE(dense.network().step_dense());

  for (Cycle i = 0; i < cycles; ++i) {
    event.injection().tick(event.network());
    event.network().step();
    const int event_verdict = event.detector().tick(event.network());
    dense.injection().tick(dense.network());
    dense.network().step();
    const int dense_verdict = dense.detector().tick(dense.network());
    ASSERT_EQ(event_verdict, dense_verdict) << "diverged at cycle " << i;
    if (i % 250 == 0) {
      ASSERT_EQ(net_bytes(event.network()), net_bytes(dense.network()))
          << "state diverged by cycle " << i;
    }
  }

  EXPECT_EQ(net_bytes(event.network()), net_bytes(dense.network()));
  EXPECT_EQ(detector_bytes(event.detector()), detector_bytes(dense.detector()));
  EXPECT_EQ(event.network().counters().delivered,
            dense.network().counters().delivered);
  EXPECT_EQ(event.network().counters().recovered,
            dense.network().counters().recovered);
  EXPECT_EQ(event.network().arc_epoch(), dense.network().arc_epoch());
  // The run must have moved traffic, or the equivalence is vacuous.
  EXPECT_GT(event.network().counters().delivered, 0);

  // Snapshots taken from either side of the lockstep pair are byte-identical:
  // the active sets are derived state and never enter the format.
  EXPECT_EQ(encode_snapshot(event.make_checkpoint()),
            encode_snapshot(dense.make_checkpoint()));
}

TEST(StepEquivalence, DorLightMediumSaturation) {
  for (const double load : {0.1, 0.5, 0.9}) {
    SCOPED_TRACE(load);
    run_lockstep(grid_config(RoutingKind::DOR, load), 2500);
  }
}

TEST(StepEquivalence, TfarLightMediumSaturation) {
  for (const double load : {0.1, 0.5, 0.9}) {
    SCOPED_TRACE(load);
    run_lockstep(grid_config(RoutingKind::TFAR, load), 2500);
  }
}

TEST(StepEquivalence, TableMinLightMediumSaturation) {
  for (const double load : {0.1, 0.5, 0.9}) {
    SCOPED_TRACE(load);
    run_lockstep(grid_config(RoutingKind::TableMin, load), 2500);
  }
}

TEST(StepEquivalence, MultiVcAdaptiveWithFaults) {
  // Deeper per-channel VC rotation plus misroute-capable selection: the
  // arbitration cursors and RNG draws must still line up exactly.
  ExperimentConfig cfg = grid_config(RoutingKind::TFAR, 0.6);
  cfg.sim.vcs = 3;
  cfg.sim.link_fault_fraction = 0.05;
  run_lockstep(cfg, 2000);
}

TEST(StepEquivalence, CommittedCorpusReplaysBothModes) {
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
    RestoredSim event = restore_snapshot(snap);
    RestoredSim dense = restore_snapshot(snap);
    dense.net->set_step_dense(true);
    // Restore rebuilds the active sets from the captured knot: the very first
    // event-driven step must see the blocked channels without a dense sweep.
    DeadlockDetector event_det(DetectorConfig{.interval = 1}, 99);
    DeadlockDetector dense_det(DetectorConfig{.interval = 1}, 99);

    for (int i = 0; i < 300; ++i) {
      event.injection->tick(*event.net);
      event.net->step();
      const int event_verdict = event_det.tick(*event.net);
      dense.injection->tick(*dense.net);
      dense.net->step();
      const int dense_verdict = dense_det.tick(*dense.net);
      ASSERT_EQ(event_verdict, dense_verdict) << "diverged at step " << i;
    }
    EXPECT_GT(event_det.total_deadlocks(), 0) << "capture should re-deadlock";
    EXPECT_EQ(net_bytes(*event.net), net_bytes(*dense.net));
    EXPECT_EQ(detector_bytes(event_det), detector_bytes(dense_det));
  }
}

TEST(StepEquivalence, CheckpointCrossesModes) {
  // A checkpoint captured event-driven resumes dense (and vice versa): the
  // step strategy is an execution detail the format never records.
  const ExperimentConfig cfg = grid_config(RoutingKind::DOR, 0.7);
  Simulation original(cfg);
  for (Cycle i = 0; i < 1500; ++i) {
    original.injection().tick(original.network());
    original.network().step();
    original.detector().tick(original.network());
  }

  const Snapshot snap = original.make_checkpoint();
  RestoredSim resumed = restore_snapshot(snap);
  resumed.net->set_step_dense(true);
  EXPECT_EQ(net_bytes(*resumed.net), net_bytes(original.network()));

  for (Cycle i = 0; i < 800; ++i) {
    original.injection().tick(original.network());
    original.network().step();
    const int original_verdict = original.detector().tick(original.network());
    resumed.injection->tick(*resumed.net);
    resumed.net->step();
    const int resumed_verdict = resumed.detector->tick(*resumed.net);
    ASSERT_EQ(original_verdict, resumed_verdict) << "diverged at cycle " << i;
  }
  EXPECT_EQ(net_bytes(*resumed.net), net_bytes(original.network()));
}

TEST(StepEquivalence, RecoveryWakeupsDrainTheNetwork) {
  // 4-node unidirectional ring, every node sending two hops ahead: a
  // permanent deadlock. remove_message() must wake every channel the victim
  // held, or the event-driven core never revisits the survivors and the
  // network stays frozen forever. (Also keeps one deprecated two-dep
  // constructor overload exercised until it is removed.)
  SimConfig cfg;
  cfg.topology.k = 4;
  cfg.topology.n = 1;
  cfg.topology.bidirectional = false;
  cfg.routing = RoutingKind::DOR;
  cfg.message_length = 8;
  cfg.buffer_depth = 2;
  auto net = std::make_unique<Network>(cfg, NetworkDeps{nullptr, make_routing(cfg),
                                 make_selection(cfg.selection)});
  ASSERT_FALSE(net->step_dense());
  std::vector<MessageId> ids;
  for (NodeId n = 0; n < 4; ++n) {
    ids.push_back(net->enqueue_message(n, (n + 2) % 4, 8));
  }
  for (int i = 0; i < 200; ++i) net->step();
  ASSERT_EQ(net->counters().delivered, 0) << "ring should be deadlocked";
  for (const MessageId id : ids) {
    ASSERT_TRUE(net->message_immobile(id));
  }

  net->remove_message(ids.front());
  for (int i = 0; i < 500 && net->counters().delivered < 3; ++i) net->step();
  EXPECT_EQ(net->counters().delivered, 3)
      << "survivors did not drain after recovery";
  EXPECT_EQ(net->counters().recovered, 1);
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

TEST(StepEquivalence, SerialSemanticsPinned) {
  // Dense and event-driven stepping run the same deliver and route code, so
  // the lockstep pairs above cannot see a drift in it. These hashes pin the
  // serial engine's semantics (same-cycle transmit chaining, shared selection
  // RNG) on the lockstep grid config; a mismatch is a semantic change.
  const struct {
    RoutingKind routing;
    std::uint64_t hash;
  } pins[] = {
      {RoutingKind::DOR, 0x563e0fe91f04b2fdULL},
      {RoutingKind::TFAR, 0x78efff4883df872fULL},
      {RoutingKind::TableMin, 0x78efff4883df872fULL},
  };
  for (const auto& pin : pins) {
    SCOPED_TRACE(to_string(pin.routing));
    const ExperimentConfig cfg = grid_config(pin.routing, 0.5);
    EXPECT_EQ(state_hash_after(cfg, 2000), pin.hash);
  }
}

TEST(StepEquivalence, SerialRoutingVariantsPinned) {
  // The remaining routing relations and selection policies, one hash each,
  // in kRoutingVariants order. Recorded before blocked headers replayed a
  // memoized route, which must leave every one unchanged.
  const std::uint64_t hashes[] = {
      0x512c82dcbe0622e0ULL,
      0x5b9b8b5b4f214c09ULL,
      0xe0fa8bab3eeea838ULL,
      0x888ad89a94afac7dULL,
      0x977d80b579e52387ULL,
      0xbd42eab654245fa6ULL,
  };
  static_assert(std::size(hashes) == std::size(kRoutingVariants));
  for (std::size_t i = 0; i < std::size(hashes); ++i) {
    SCOPED_TRACE(kRoutingVariants[i].name);
    const ExperimentConfig cfg = apply_variant(
        grid_config(RoutingKind::TFAR, 0.5), kRoutingVariants[i]);
    EXPECT_EQ(state_hash_after(cfg, 2000), hashes[i]);
  }
}

TEST(StepEquivalence, IdleNetworkStepsDoNothing) {
  SimConfig cfg;
  cfg.topology.k = 8;
  cfg.topology.n = 2;
  NetworkDeps deps;
  deps.routing = make_routing(cfg);
  deps.selection = make_selection(cfg.selection);
  Network net(cfg, std::move(deps));
  for (int i = 0; i < 100; ++i) net.step();
  EXPECT_EQ(net.now(), 100);
  EXPECT_EQ(net.arc_epoch(), 0u);
  EXPECT_EQ(net.counters().delivered, 0);
  // After draining completely, the sets empty out again and steps are free.
  net.enqueue_message(0, 5, 4);
  for (int i = 0; i < 100; ++i) net.step();
  EXPECT_EQ(net.counters().delivered, 1);
  const std::uint64_t settled = net.arc_epoch();
  for (int i = 0; i < 50; ++i) net.step();
  EXPECT_EQ(net.arc_epoch(), settled);
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

TEST(StepEquivalence, ManifestAndMetricsStreamsByteIdentical) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "flexnet_step_equiv";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  ExperimentConfig cfg = grid_config(RoutingKind::TFAR, 0.6);
  cfg.run.warmup = 500;
  cfg.run.measure = 2000;
  cfg.obs.collect = true;
  cfg.obs.interval = 50;

  ExperimentConfig event_cfg = cfg;
  event_cfg.telemetry.manifest_path = (dir / "event.json").string();
  event_cfg.obs.metrics_path = (dir / "event.ndjson").string();
  ExperimentConfig dense_cfg = cfg;
  dense_cfg.run.step_dense = true;
  dense_cfg.telemetry.manifest_path = (dir / "dense.json").string();
  dense_cfg.obs.metrics_path = (dir / "dense.ndjson").string();

  const ExperimentResult event_result = run_experiment(event_cfg);
  const ExperimentResult dense_result = run_experiment(dense_cfg);
  EXPECT_EQ(event_result.window.delivered, dense_result.window.delivered);
  EXPECT_EQ(event_result.window.deadlocks, dense_result.window.deadlocks);

  // The metrics NDJSON stream carries only simulation-derived values and must
  // match byte for byte; the manifest matches once its profiler timings (the
  // one wall-clock block) are stripped and the self-referential metrics path
  // (the two runs write to different files by construction) is neutralized.
  EXPECT_EQ(read_file(dir / "event.ndjson"), read_file(dir / "dense.ndjson"));
  const auto neutralize = [](std::string text, const std::string& path) {
    const std::size_t at = text.find(path);
    if (at != std::string::npos) text.replace(at, path.size(), "<metrics>");
    return text;
  };
  const std::string event_manifest =
      neutralize(strip_profile(read_file(dir / "event.json")),
                 event_cfg.obs.metrics_path);
  const std::string dense_manifest =
      neutralize(strip_profile(read_file(dir / "dense.json")),
                 dense_cfg.obs.metrics_path);
  ASSERT_FALSE(event_manifest.empty());
  EXPECT_EQ(event_manifest, dense_manifest);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace flexnet
