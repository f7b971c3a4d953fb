// Step-mode equivalence: the default engine (one shard, activity-gated), the
// dense per-cycle sweep (--step-dense) and the sharded engine (--shards N)
// must be bit-identical in every observable way — per-cycle network state
// bytes, detector verdicts, snapshots, traces, metrics streams and telemetry
// manifests (DESIGN.md §3j). The suite locksteps the three for DOR, TFAR and
// TableMin at light / medium / saturation load, for multi-VC adaptive
// routing with faults and for the DuatoTFAR and Random-selection TFAR
// variants, replays the committed deadlock corpus in every mode,
// crosses modes over a mid-run checkpoint, and pins the recovery-wakeup
// contract: a network that just had a message removed must drain without a
// dense sweep. The header-wake cases check that a dormant header is retried
// after each event that can change its answer: a requested VC freed by a
// delivery or by recovery, and its own held chain shrinking. The source
// cases check that a sleeping source wakes at every release of an injection
// VC and that its heatmap stall count stays exact across a restore, a
// reshard and a heatmap swap.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <vector>

#include "lockstep.hpp"
#include "routing_variants.hpp"
#include "routing/dor.hpp"
#include "routing/routing.hpp"
#include "routing/selection.hpp"
#include "telemetry/heatmap.hpp"
#include "topo/topology.hpp"

#ifndef FLEXNET_CORPUS_DIR
#error "FLEXNET_CORPUS_DIR must point at the committed tests/corpus directory"
#endif

namespace flexnet {
namespace {

TEST(StepEquivalence, DorLightMediumSaturation) {
  for (const double load : {0.1, 0.5, 0.9}) {
    SCOPED_TRACE(load);
    run_lockstep(grid_config(RoutingKind::DOR, load), 2500, 8);
  }
}

TEST(StepEquivalence, TfarLightMediumSaturation) {
  for (const double load : {0.1, 0.5, 0.9}) {
    SCOPED_TRACE(load);
    run_lockstep(grid_config(RoutingKind::TFAR, load), 2500, 8);
  }
}

TEST(StepEquivalence, TableMinLightMediumSaturation) {
  for (const double load : {0.1, 0.5, 0.9}) {
    SCOPED_TRACE(load);
    run_lockstep(grid_config(RoutingKind::TableMin, load), 2500, 8);
  }
}

TEST(StepEquivalence, MultiVcAdaptiveWithFaults) {
  // Deeper per-channel VC rotation, misroute-capable selection and faulted
  // links: arbitration cursors and selection draws must line up exactly.
  ExperimentConfig cfg = grid_config(RoutingKind::TFAR, 0.6);
  cfg.sim.vcs = 3;
  cfg.sim.link_fault_fraction = 0.05;
  run_lockstep(cfg, 2000, 8);
}

TEST(StepEquivalence, AdaptiveVariantsWithRepeatedAnswers) {
  // Adaptive variants in which about a quarter of the header retries find
  // the routing answer unchanged since the header's last failure: several
  // candidate channels and VCs to recompute on each retry, and Random
  // selection's per-(message, cycle) draws.
  for (const RoutingVariant& variant : kRoutingVariants) {
    if (variant.name != "DuatoTFAR, 3 VCs" &&
        variant.name != "TFAR, 2 VCs, Random") {
      continue;
    }
    SCOPED_TRACE(std::string(variant.name));
    run_lockstep(apply_variant(grid_config(RoutingKind::TFAR, 0.6), variant),
                 2000, 8);
  }
}

TEST(StepEquivalence, SleepingSourcesWakeAtEverySite) {
  // Saturation with two injection VCs per node and a recovery every three
  // cycles: sources sleep with both injection VCs owned and wake when a tail
  // leaves one (in the one-walk and the N-shard transmit path) or a
  // recovery victim frees one. Every network has a heatmap attached, and
  // each periodic check compares every node's stall count, its open span
  // included, while sources sleep.
  ExperimentConfig cfg = grid_config(RoutingKind::DOR, 0.9);
  cfg.sim.injection_vcs = 2;
  cfg.sim.message_length = 16;
  cfg.detector.interval = 3;
  cfg.telemetry.collect = true;
  int sleeping_checks = 0;
  run_lockstep(cfg, 2000, 4, &sleeping_checks);
  EXPECT_GE(sleeping_checks, 6);
}

TEST(StepEquivalence, StallSpansCrossRestoreReshardAndHeatmapSwap) {
  // A sleeping source's stall span must be credited exactly once whether it
  // closes at a visit, at a restore that moves the clock back, across a
  // reshard or at a heatmap swap. The dense sweep visits every source every
  // cycle, so its spans never outlast one phase: it is the reference. The
  // default engine also runs two shards for part of the run. DatelineDOR
  // saturates without deadlocking, so sources keep sleeping and waking.
  ExperimentConfig cfg = grid_config(RoutingKind::DatelineDOR, 0.9);
  cfg.sim.vcs = 2;
  cfg.sim.injection_vcs = 2;
  cfg.sim.message_length = 16;
  const auto run = [](Simulation& sim, int cycles) {
    for (int i = 0; i < cycles; ++i) {
      sim.injection().tick(sim.network());
      sim.network().step();
    }
  };
  std::vector<std::vector<std::uint8_t>> states;
  std::vector<std::vector<std::int64_t>> counts;
  for (const bool dense : {false, true}) {
    SCOPED_TRACE(dense ? "dense" : "default");
    Simulation sim(with_mode(cfg, {"", dense, 0}));
    Network& net = sim.network();
    SpatialHeatmap first(net);
    SpatialHeatmap second(net);
    NetworkHooks hooks = net.hooks();
    hooks.heatmap = &first;
    net.install_hooks(hooks);

    run(sim, 300);
    BinWriter saved;
    net.save_state(saved);
    run(sim, 100);
    EXPECT_TRUE(dense || any_source_sleeps(net));
    BinReader in(saved.bytes().data(), saved.bytes().size());
    net.restore_state(in);  // back to cycle 300
    run(sim, 100);
    if (!dense) {
      EXPECT_TRUE(any_source_sleeps(net));
      net.set_shards(2);
    }
    run(sim, 100);
    if (!dense) {
      EXPECT_TRUE(any_source_sleeps(net));
      net.set_shards(1);
    }
    run(sim, 100);
    EXPECT_TRUE(dense || any_source_sleeps(net));
    hooks.heatmap = &second;
    net.install_hooks(hooks);
    run(sim, 100);
    EXPECT_TRUE(dense || any_source_sleeps(net));

    states.push_back(net_bytes(net));
    counts.emplace_back();
    for (const SpatialHeatmap* heatmap : {&first, &second}) {
      for (NodeId n = 0; n < net.topology().num_nodes(); ++n) {
        counts.back().push_back(heatmap->injection_stall_cycles(net, n));
      }
    }
    net.check_invariants();
  }
  EXPECT_EQ(states[0], states[1]);
  EXPECT_EQ(counts[0], counts[1]);
  EXPECT_GT(std::count_if(counts[0].begin(), counts[0].end(),
                          [](std::int64_t c) { return c > 0; }),
            0);
}

TEST(StepEquivalence, CommittedCorpusReplaysInEveryMode) {
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
    RestoredSim base = restore_snapshot(snap);
    RestoredSim dense = restore_snapshot(snap);
    RestoredSim wide = restore_snapshot(snap);
    dense.net->set_step_dense(true);
    wide.net->set_shards(8);
    // Restore rebuilds the (per-shard) active sets from the captured knot:
    // the very first event-driven step must see the blocked channels without
    // a dense sweep.
    RestoredSim* others[] = {&dense, &wide};
    DeadlockDetector base_det(DetectorConfig{.interval = 1}, 99);
    DeadlockDetector dense_det(DetectorConfig{.interval = 1}, 99);
    DeadlockDetector wide_det(DetectorConfig{.interval = 1}, 99);
    DeadlockDetector* other_dets[] = {&dense_det, &wide_det};

    for (int i = 0; i < 300; ++i) {
      base.injection->tick(*base.net);
      base.net->step();
      const int verdict = base_det.tick(*base.net);
      for (std::size_t m = 0; m < 2; ++m) {
        RestoredSim& other = *others[m];
        other.injection->tick(*other.net);
        other.net->step();
        ASSERT_EQ(other_dets[m]->tick(*other.net), verdict)
            << (m == 0 ? "dense" : "8 shards") << " diverged at step " << i;
      }
    }
    EXPECT_GT(base_det.total_deadlocks(), 0) << "capture should re-deadlock";
    for (std::size_t m = 0; m < 2; ++m) {
      EXPECT_EQ(net_bytes(*base.net), net_bytes(*others[m]->net));
      EXPECT_EQ(detector_bytes(base_det), detector_bytes(*other_dets[m]));
    }
  }
}

TEST(StepEquivalence, CheckpointCrossesModes) {
  // A checkpoint captured at 4 shards resumes in the default engine, dense
  // and at 8 shards: the step strategy is an execution detail the format
  // never records.
  const ExperimentConfig cfg =
      with_mode(grid_config(RoutingKind::DOR, 0.7), {"4 shards", false, 4});
  Simulation original(cfg);
  for (Cycle i = 0; i < 1500; ++i) step_cycle(original);

  const Snapshot snap = original.make_checkpoint();
  std::vector<RestoredSim> resumed;
  for (int m = 0; m < 3; ++m) resumed.push_back(restore_snapshot(snap));
  resumed[1].net->set_step_dense(true);
  resumed[2].net->set_shards(8);
  for (const RestoredSim& sim : resumed) {
    EXPECT_EQ(net_bytes(*sim.net), net_bytes(original.network()));
  }

  for (Cycle i = 0; i < 800; ++i) {
    const int verdict = step_cycle(original);
    for (RestoredSim& sim : resumed) {
      sim.injection->tick(*sim.net);
      sim.net->step();
      ASSERT_EQ(sim.detector->tick(*sim.net), verdict)
          << "diverged at cycle " << i;
    }
  }
  for (const RestoredSim& sim : resumed) {
    EXPECT_EQ(net_bytes(*sim.net), net_bytes(original.network()));
  }
}

TEST(StepEquivalence, RecoveryWakeupsDrainTheNetwork) {
  // 4-node unidirectional ring, every node sending two hops ahead: a
  // permanent deadlock. remove_message() must wake every channel the victim
  // held, in the owning shard's set, or the event-driven core never revisits
  // the survivors and the network stays frozen forever.
  SimConfig cfg;
  cfg.topology.k = 4;
  cfg.topology.n = 1;
  cfg.topology.bidirectional = false;
  cfg.routing = RoutingKind::DOR;
  cfg.message_length = 8;
  cfg.buffer_depth = 2;
  for (const int shards : {1, 2}) {
    SCOPED_TRACE(shards);
    Network net(cfg, NetworkDeps{nullptr, make_routing(cfg),
                                 make_selection(cfg.selection)});
    net.set_shards(shards);
    ASSERT_FALSE(net.step_dense());
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
}

TEST(StepEquivalence, DeliveryWakesADormantHeader) {
  // Two 8-flit messages to one destination on a 4-node ring, one ejection
  // VC: the second header reaches node 2 while the first still owns the
  // ejection VC, fails, and sleeps. Only complete_delivery's release of
  // that VC can wake it; the dense oracle would retry it anyway.
  SimConfig cfg;
  cfg.topology.k = 4;
  cfg.topology.n = 1;
  cfg.routing = RoutingKind::DOR;
  cfg.message_length = 8;
  cfg.buffer_depth = 8;
  for (const StepMode& mode :
       {StepMode{"default"}, StepMode{"dense", true},
        StepMode{"2 shards", false, 2}}) {
    SCOPED_TRACE(mode.name);
    Network net(cfg, NetworkDeps{nullptr, make_routing(cfg),
                                 make_selection(cfg.selection)});
    net.set_step_dense(mode.dense);
    net.set_shards(mode.shards);
    net.enqueue_message(1, 2, 8);
    net.enqueue_message(3, 2, 8);
    for (int i = 0; i < 100 && net.counters().delivered < 2; ++i) {
      net.step();
      net.check_invariants();
    }
    EXPECT_EQ(net.counters().delivered, 2) << "the second message slept";
  }
}

/// A test-only relation whose candidates read the held chain, as the
/// RoutingAlgorithm contract allows: the dimension-order channel while the
/// worm spans three or more VCs, and every minimal channel out of the router
/// once it holds two or fewer. A dormant header whose chain shrinks to two
/// therefore gains candidates that its watched VCs say nothing about.
class HeldGatedRouting final : public RoutingAlgorithm {
 public:
  [[nodiscard]] std::string_view name() const noexcept override {
    return "HeldGated";
  }
  void candidate_channels(const Network& net, const Message& msg, NodeId here,
                          VcId /*in_vc*/,
                          std::vector<ChannelId>& out) const override {
    const ChannelId dor = DorRouting::dor_channel(net, here, msg.dst);
    out.push_back(dor);
    if (msg.held.size() > 2) return;
    const Topology& topo = net.topology();
    for (const ChannelId ch : topo.out_channels(here)) {
      if (ch != dor && topo.hop_is_minimal(topo.channel(ch), msg.dst)) {
        out.push_back(ch);
      }
    }
  }
};

TEST(StepEquivalence, HeldShrinkWakesADormantHeader) {
  // 8-flit worms in 4-flit buffers: a blocked worm spread over three VCs
  // compacts into two and widens its candidate set. The default engine and
  // 4 shards must retry it then, as the dense oracle does every cycle.
  ExperimentConfig cfg = grid_config(RoutingKind::DOR, 0.6);
  cfg.sim.buffer_depth = 4;
  struct Run {
    std::unique_ptr<Network> net;
    std::unique_ptr<InjectionProcess> injection;
    std::unique_ptr<DeadlockDetector> detector;
  };
  const StepMode modes[] = {
      {"default"}, {"dense", true}, {"4 shards", false, 4}};
  std::vector<Run> runs;
  for (const StepMode& mode : modes) {
    NetworkDeps deps;
    deps.routing = std::make_unique<HeldGatedRouting>();
    deps.selection = make_selection(cfg.sim.selection);
    Run run;
    run.net = std::make_unique<Network>(cfg.sim, std::move(deps));
    run.net->set_step_dense(mode.dense);
    run.net->set_shards(mode.shards);
    run.injection =
        std::make_unique<InjectionProcess>(*run.net, cfg.traffic, 7);
    run.detector = std::make_unique<DeadlockDetector>(cfg.detector, 7);
    runs.push_back(std::move(run));
  }
  for (Cycle i = 0; i < 2000; ++i) {
    int verdict = 0;
    for (std::size_t m = 0; m < runs.size(); ++m) {
      Run& run = runs[m];
      run.injection->tick(*run.net);
      run.net->step();
      const int v = run.detector->tick(*run.net);
      if (m == 0) verdict = v;
      ASSERT_EQ(v, verdict) << modes[m].name << " diverged at cycle " << i;
      if (i % 50 == 0) {
        ASSERT_EQ(net_bytes(*run.net), net_bytes(*runs[0].net))
            << modes[m].name << " state diverged by cycle " << i;
        run.net->check_invariants();
      }
    }
  }
  for (const Run& run : runs) {
    EXPECT_EQ(net_bytes(*run.net), net_bytes(*runs[0].net));
  }
  EXPECT_GT(runs[0].net->counters().delivered, 0);
  EXPECT_GT(runs[0].detector->total_deadlocks(), 0);
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

  const StepMode modes[] = {{"default"}, {"dense", true}, {"8 shards", false, 8}};
  std::vector<ExperimentResult> results;
  std::vector<std::string> streams;
  std::vector<std::string> manifests;
  for (const StepMode& mode : modes) {
    ExperimentConfig mode_cfg = with_mode(cfg, mode);
    const std::string stem = (dir / mode.name).string();
    mode_cfg.telemetry.manifest_path = stem + ".json";
    mode_cfg.obs.metrics_path = stem + ".ndjson";
    results.push_back(run_experiment(mode_cfg));
    // The metrics NDJSON stream carries only simulation-derived values. The
    // manifest matches once its profiler timings (the one wall-clock block)
    // are stripped and the self-referential metrics path (the runs write to
    // different files by construction) is neutralized.
    streams.push_back(read_file(mode_cfg.obs.metrics_path));
    std::string manifest = strip_profile(read_file(stem + ".json"));
    const std::size_t at = manifest.find(mode_cfg.obs.metrics_path);
    if (at != std::string::npos) {
      manifest.replace(at, mode_cfg.obs.metrics_path.size(), "<metrics>");
    }
    manifests.push_back(manifest);
  }
  ASSERT_FALSE(manifests.front().empty());
  for (std::size_t m = 1; m < std::size(modes); ++m) {
    SCOPED_TRACE(modes[m].name);
    EXPECT_EQ(results[m].window.delivered, results.front().window.delivered);
    EXPECT_EQ(results[m].window.deadlocks, results.front().window.deadlocks);
    EXPECT_EQ(streams[m], streams.front());
    EXPECT_EQ(manifests[m], manifests.front());
  }
  std::filesystem::remove_all(dir);
}

TEST(StepEquivalence, BinaryTracesByteIdentical) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "flexnet_step_trace";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  ExperimentConfig cfg = grid_config(RoutingKind::TFAR, 0.7);
  cfg.run.warmup = 300;
  cfg.run.measure = 1200;

  const StepMode modes[] = {{"default"}, {"dense", true}, {"6 shards", false, 6}};
  std::vector<std::string> traces;
  for (const StepMode& mode : modes) {
    ExperimentConfig mode_cfg = with_mode(cfg, mode);
    mode_cfg.trace.binary_path = (dir / mode.name).string() + ".trace";
    (void)run_experiment(mode_cfg);
    traces.push_back(read_file(mode_cfg.trace.binary_path));
  }
  ASSERT_FALSE(traces.front().empty());
  EXPECT_EQ(traces[1], traces.front()) << modes[1].name;
  EXPECT_EQ(traces[2], traces.front()) << modes[2].name;
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace flexnet
