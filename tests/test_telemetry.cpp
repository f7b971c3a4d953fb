#include "telemetry/telemetry.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>

#include "core/detector.hpp"
#include "exp/experiment.hpp"
#include "routing/routing.hpp"
#include "routing/selection.hpp"
#include "telemetry/manifest.hpp"
#include "util/json.hpp"

namespace flexnet {
namespace {

std::unique_ptr<Network> make_network(SimConfig cfg) {
  return std::make_unique<Network>(cfg, NetworkDeps{nullptr, make_routing(cfg),
                                 make_selection(cfg.selection)});
}

SimConfig torus_4x4() {
  SimConfig cfg;
  cfg.topology.k = 4;
  cfg.topology.n = 2;
  cfg.message_length = 4;
  cfg.routing = RoutingKind::DOR;
  return cfg;
}

Cycle run_until_delivered(Network& net, Cycle limit = 1000) {
  while (net.counters().delivered == 0 && net.now() < limit) net.step();
  return net.now();
}

// --- IntervalRecorder ------------------------------------------------------

TEST(IntervalRecorder, RejectsNonPositiveInterval) {
  EXPECT_THROW(IntervalRecorder(0, 8), std::invalid_argument);
}

TEST(IntervalRecorder, RingBoundsRetainedSamples) {
  auto net = make_network(torus_4x4());
  DeadlockDetector detector(DetectorConfig{}, 1);
  IntervalRecorder recorder(10, 4);

  for (int i = 0; i < 10; ++i) {
    for (int c = 0; c < 10; ++c) net->step();
    recorder.sample(*net, detector);
  }

  EXPECT_EQ(recorder.capacity(), 4u);
  EXPECT_EQ(recorder.size(), 4u);
  EXPECT_EQ(recorder.total_samples(), 10u);
  EXPECT_EQ(recorder.dropped(), 6u);
  // Oldest-first iteration: the four youngest samples survive.
  EXPECT_EQ(recorder.at(0).cycle, 70);
  EXPECT_EQ(recorder.at(3).cycle, 100);
}

TEST(IntervalRecorder, SamplesCountIntervalFlow) {
  auto net = make_network(torus_4x4());
  DeadlockDetector detector(DetectorConfig{}, 1);
  IntervalRecorder recorder(100, 16);

  net->enqueue_message(0, 5, 4);
  run_until_delivered(*net);
  while (net->now() < 100) net->step();
  recorder.sample(*net, detector);

  ASSERT_EQ(recorder.size(), 1u);
  const IntervalSample& s = recorder.at(0);
  EXPECT_EQ(s.cycle, 100);
  EXPECT_EQ(s.delivered, 1);
  EXPECT_EQ(s.flits_delivered, 4);
  EXPECT_GT(s.avg_latency, 0.0);
  EXPECT_EQ(s.in_network, 0);
  EXPECT_EQ(s.blocked, 0);
  EXPECT_EQ(s.cwg_ownership_arcs, 0);

  // The next sample covers an idle interval: all-zero flow.
  while (net->now() < 200) net->step();
  recorder.sample(*net, detector);
  EXPECT_EQ(recorder.at(1).delivered, 0);
  EXPECT_DOUBLE_EQ(recorder.at(1).throughput_flits_per_node, 0.0);
}

// --- SpatialHeatmap --------------------------------------------------------

TEST(SpatialHeatmap, CountsTraversalsForSingleMessage) {
  auto net = make_network(torus_4x4());
  SpatialHeatmap heatmap(*net);
  NetworkHooks hooks;
  hooks.heatmap = &heatmap;
  net->install_hooks(hooks);

  const int length = 4;
  const MessageId id = net->enqueue_message(0, 5, length);
  run_until_delivered(*net);
  ASSERT_EQ(net->counters().delivered, 1);
  const int hops = net->message(id).hops;
  EXPECT_EQ(hops, 2);  // (0,0) -> (1,1) under DOR

  // Every channel along the route (injection + hops network channels +
  // ejection) carries each of the message's flits exactly once.
  EXPECT_EQ(heatmap.total_traversals(),
            static_cast<std::int64_t>(hops + 2) * length);
  int hot_network_channels = 0;
  for (std::size_t c = 0; c < net->num_network_channels(); ++c) {
    const std::int64_t t = heatmap.channel(static_cast<ChannelId>(c)).traversals;
    if (t == 0) continue;
    EXPECT_EQ(t, length);
    ++hot_network_channels;
  }
  EXPECT_EQ(hot_network_channels, hops);
  EXPECT_EQ(heatmap.channel(net->injection_channel(0)).traversals, length);
  EXPECT_EQ(heatmap.channel(net->ejection_channel(5)).traversals, length);

  EXPECT_EQ(heatmap.total_injection_stalls(*net), 0);
  EXPECT_EQ(heatmap.total_blocked_cycles(), 0);  // never sampled
}

TEST(SpatialHeatmap, OccupancySamplingChargesOwnedVcs) {
  auto net = make_network(torus_4x4());
  SpatialHeatmap heatmap(*net);
  NetworkHooks hooks;
  hooks.heatmap = &heatmap;
  net->install_hooks(hooks);

  net->enqueue_message(0, 5, 4);
  net->step();
  net->step();  // header has acquired at least the injection VC

  std::int64_t owned = 0;
  for (const MessageId id : net->active_messages()) {
    owned += static_cast<std::int64_t>(net->message(id).held.size());
  }
  ASSERT_GT(owned, 0);

  heatmap.sample_occupancy(*net, 10);
  std::int64_t busy = 0;
  for (std::size_t c = 0; c < net->num_channels(); ++c) {
    busy += heatmap.channel(static_cast<ChannelId>(c)).busy_cycles;
  }
  EXPECT_EQ(busy, owned * 10);
}

TEST(SpatialHeatmap, CountsInjectionStalls) {
  SimConfig cfg = torus_4x4();
  cfg.injection_vcs = 1;
  auto net = make_network(cfg);
  SpatialHeatmap heatmap(*net);
  NetworkHooks hooks;
  hooks.heatmap = &heatmap;
  net->install_hooks(hooks);

  // Two messages at the same node: the second waits for the injection VC
  // from the first's grant (cycle 0) to its own, stalling in every route
  // phase in between. The node sleeps meanwhile, so the count is read both
  // while its stall span is still open and after it was credited.
  const MessageId first = net->enqueue_message(0, 5, 4);
  const MessageId second = net->enqueue_message(0, 6, 4);
  net->step();
  net->step();
  EXPECT_EQ(heatmap.injection_stall_cycles(*net, 0), 2);
  EXPECT_EQ(net->injection_stall_span(0), 2);
  for (int i = 0; i < 100; ++i) net->step();
  EXPECT_EQ(net->counters().delivered, 2);
  ASSERT_EQ(net->message(first).injected, 0);
  // The first message's tail leaves the injection VC after four flits.
  EXPECT_EQ(net->message(second).injected, 5);
  EXPECT_EQ(heatmap.injection_stall_cycles(*net, 0), 5);
  EXPECT_EQ(net->injection_stall_span(0), 0);
  EXPECT_EQ(heatmap.injection_stall_cycles(*net, 1), 0);
  EXPECT_EQ(heatmap.total_injection_stalls(*net), 5);
}

TEST(SpatialHeatmap, AsciiGridFor2DAndFallbackTable) {
  auto net2d = make_network(torus_4x4());
  SpatialHeatmap heat2d(*net2d);
  const std::string grid =
      heat2d.ascii_grid(*net2d, SpatialHeatmap::Field::Traversals);
  ASSERT_FALSE(grid.empty());
  EXPECT_NE(grid.find("4x4"), std::string::npos);

  // Non-2-D topologies get the degree-ordered per-node table instead.
  SimConfig cfg3 = torus_4x4();
  cfg3.topology.n = 3;
  auto net3d = make_network(cfg3);
  SpatialHeatmap heat3d(*net3d);
  const std::string table =
      heat3d.ascii_grid(*net3d, SpatialHeatmap::Field::Traversals);
  ASSERT_FALSE(table.empty());
  EXPECT_NE(table.find("degree-ordered"), std::string::npos);
  EXPECT_NE(table.find("node  degree"), std::string::npos);
  // 64 nodes -> 64 data rows plus the two header lines.
  EXPECT_EQ(std::count(table.begin(), table.end(), '\n'), 66);
}

TEST(SpatialHeatmap, CsvHasFixedSchemaAndAllRows) {
  auto net = make_network(torus_4x4());
  SpatialHeatmap heatmap(*net);
  std::ostringstream out;
  heatmap.write_csv(out, *net);
  std::istringstream in(out.str());
  std::string header;
  ASSERT_TRUE(std::getline(in, header));
  EXPECT_EQ(header,
            "row,id,kind,src,dst,dim,dir,channel,vc_index,traversals,"
            "busy_cycles,blocked_cycles,stall_cycles");
  std::size_t rows = 0;
  for (std::string line; std::getline(in, line);) ++rows;
  EXPECT_EQ(rows, net->num_channels() + net->num_vcs() +
                      static_cast<std::size_t>(net->topology().num_nodes()));
}

// --- PhaseProfiler ---------------------------------------------------------

TEST(PhaseProfiler, ScopedPhaseAccumulates) {
  PhaseProfiler profiler;
  for (int i = 0; i < 3; ++i) {
    ScopedPhase scope(&profiler, SimPhase::Route);
  }
  { ScopedPhase scope(nullptr, SimPhase::Route); }  // null target: no-op
  EXPECT_EQ(profiler.stats(SimPhase::Route).calls, 3);
  EXPECT_EQ(profiler.stats(SimPhase::Deliver).calls, 0);
  profiler.reset();
  EXPECT_EQ(profiler.stats(SimPhase::Route).calls, 0);
}

// --- end-to-end: Simulation + manifest ------------------------------------

ExperimentConfig telemetry_config() {
  ExperimentConfig cfg;
  cfg.sim = torus_4x4();
  cfg.sim.vcs = 2;
  cfg.traffic.load = 0.4;
  cfg.run.warmup = 200;
  cfg.run.measure = 1000;
  cfg.telemetry.collect = true;
  cfg.telemetry.interval = 50;
  return cfg;
}

std::string run_and_write_manifest(const ExperimentConfig& cfg) {
  Simulation sim(cfg);
  const ExperimentResult result = sim.run();
  std::ostringstream out;
  write_manifest_json(out, sim.config(), result, *sim.telemetry(),
                      sim.network());
  return out.str();
}

TEST(Telemetry, DisabledByDefaultEnabledByAnyPath) {
  TelemetryConfig cfg;
  EXPECT_FALSE(cfg.enabled());
  cfg.manifest_path = "x.json";
  EXPECT_TRUE(cfg.enabled());
  const TelemetryConfig p = cfg.with_point_suffix(3);
  EXPECT_EQ(p.manifest_path, "x.json.p3");
}

TEST(Telemetry, SimulationCollectsSeriesAndProfile) {
  Simulation sim(telemetry_config());
  ASSERT_NE(sim.telemetry(), nullptr);
  EXPECT_EQ(sim.network().hooks().heatmap, &sim.telemetry()->heatmap());
  EXPECT_EQ(sim.network().hooks().profiler, &sim.telemetry()->profiler());

  const ExperimentResult result = sim.run();
  EXPECT_TRUE(result.telemetry.enabled);
  // 1200 cycles at interval 50 -> 24 samples.
  EXPECT_EQ(result.telemetry.interval_samples, 24u);
  EXPECT_EQ(result.telemetry.samples_dropped, 0u);
  EXPECT_FALSE(result.telemetry.heatmap_ascii.empty());
  EXPECT_NE(result.telemetry.profile_table.find("transmit"),
            std::string::npos);
  EXPECT_GT(sim.telemetry()->heatmap().total_traversals(), 0);
  EXPECT_GT(sim.telemetry()->profiler().stats(SimPhase::Transmit).calls, 0);
}

TEST(Telemetry, RingBoundingSurfacesInArtifacts) {
  ExperimentConfig cfg = telemetry_config();
  cfg.telemetry.ring_capacity = 4;
  Simulation sim(cfg);
  const ExperimentResult result = sim.run();
  EXPECT_EQ(result.telemetry.interval_samples, 4u);
  EXPECT_EQ(result.telemetry.samples_dropped, 20u);
}

TEST(Telemetry, DisabledSimulationHasNoProbes) {
  ExperimentConfig cfg = telemetry_config();
  cfg.telemetry = TelemetryConfig{};
  Simulation sim(cfg);
  EXPECT_EQ(sim.telemetry(), nullptr);
  EXPECT_EQ(sim.network().hooks().heatmap, nullptr);
  EXPECT_EQ(sim.network().hooks().profiler, nullptr);
  const ExperimentResult result = sim.run();
  EXPECT_FALSE(result.telemetry.enabled);
}

TEST(Telemetry, ManifestParsesWithFullSchema) {
  const JsonValue root =
      JsonValue::parse(run_and_write_manifest(telemetry_config()));
  EXPECT_EQ(root.at("schema").string, kManifestSchema);
  EXPECT_FALSE(root.at("build").at("git_sha").string.empty());
  EXPECT_EQ(root.at("config").at("sim").at("k").as_int(), 4);
  EXPECT_DOUBLE_EQ(root.at("config").at("traffic").at("load").number, 0.4);
  EXPECT_EQ(root.at("config").at("detector").at("full_rebuild").boolean, false);
  EXPECT_GT(root.at("result").at("window").at("delivered").as_int(), 0);

  // Detection-cost accounting: every scheduled pass is an invocation; the
  // skipped count is how many the incremental pipeline answered for free.
  const JsonValue& det = root.at("result").at("detector");
  EXPECT_GT(det.at("invocations").as_int(), 0);
  EXPECT_GE(det.at("skipped_passes").as_int(), 0);
  EXPECT_LE(det.at("skipped_passes").as_int(), det.at("invocations").as_int());

  const JsonValue& series = root.at("series");
  EXPECT_EQ(series.at("interval").as_int(), 50);
  ASSERT_EQ(series.at("samples").array.size(), 24u);
  const JsonValue& sample = series.at("samples").array.front();
  EXPECT_EQ(sample.at("cycle").as_int(), 50);  // warmup ramp is part of the series
  EXPECT_NE(sample.find("cwg_request_arcs"), nullptr);
  ASSERT_NE(sample.find("detector_skipped"), nullptr);
  EXPECT_GE(sample.at("detector_skipped").as_int(), 0);
  EXPECT_LE(sample.at("detector_skipped").as_int(),
            sample.at("detector_invocations").as_int());

  EXPECT_GT(root.at("heatmap").at("total_traversals").as_int(), 0);
  EXPECT_FALSE(root.at("heatmap").at("hot_channels").array.empty());
  EXPECT_EQ(root.at("profile").at("phases").array.size(), kNumSimPhases);
}

TEST(Telemetry, ManifestDeterministicModuloProfile) {
  const ExperimentConfig cfg = telemetry_config();
  const std::string a = run_and_write_manifest(cfg);
  const std::string b = run_and_write_manifest(cfg);
  // Everything up to the wall-clock "profile" section must match bytewise.
  const std::size_t cut_a = a.find("\"profile\"");
  const std::size_t cut_b = b.find("\"profile\"");
  ASSERT_NE(cut_a, std::string::npos);
  EXPECT_EQ(a.substr(0, cut_a), b.substr(0, cut_b));
}

}  // namespace
}  // namespace flexnet
