// Microbenchmarks (google-benchmark): the cost of the detection machinery
// itself — CWG construction, SCC, knot finding, cycle enumeration — and the
// simulator's cycle rate. These bound the overhead of running true deadlock
// detection every 50 cycles.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "flexnet.hpp"

namespace flexnet {
namespace {

/// A saturated 16-ary 2-cube TFAR1 network: the realistic worst-case CWG.
std::unique_ptr<Simulation> saturated_sim(int k, double load,
                                          bool telemetry = false,
                                          bool obs = false) {
  ExperimentConfig cfg;
  cfg.sim.topology.k = k;
  cfg.sim.topology.n = 2;
  cfg.sim.routing = RoutingKind::TFAR;
  cfg.sim.vcs = 1;
  cfg.traffic.load = load;
  cfg.detector.recovery = RecoveryKind::None;  // leave congestion in place
  cfg.telemetry.collect = telemetry;
  cfg.obs.collect = obs;
  auto sim = std::make_unique<Simulation>(cfg);
  sim->run_cycles(3000);
  return sim;
}

void BM_NetworkStep(benchmark::State& state) {
  const auto k = static_cast<int>(state.range(0));
  auto sim = saturated_sim(k, 0.4);
  for (auto _ : state) {
    sim->injection().tick(sim->network());
    sim->network().step();
  }
  state.SetItemsProcessed(state.iterations() *
                          sim->network().topology().num_nodes());
}
BENCHMARK(BM_NetworkStep)->Arg(8)->Arg(16)->Arg(32);

/// Sharded engine cycle rate: the BM_NetworkStep harness on the 16-ary
/// 2-cube at load 0.5, with deadlock recovery left on (default RemoveOldest,
/// interval 50) so the network keeps flowing for the whole measured run — a
/// permanently wedged network sheds its active sets and leaves nothing to
/// parallelize. Arg is the shard count; /1 is the default engine (one shard
/// stepped inline). Wall clock (UseRealTime) is the honest metric for a
/// multi-threaded step: on hosts with >= 8 hardware threads the
/// compare_bench.py gate enforces /8 at >= 3x over /1 on real time within
/// one summary. Every arg steps the same fixed number of cycles from the
/// same warm start, so the legs average over the same stretch of simulated
/// time instead of whatever iteration count google-benchmark picks for each.
constexpr int kShardedIterations = 10000;

void BM_NetworkStepSharded(benchmark::State& state) {
  const int shards = static_cast<int>(state.range(0));
  ExperimentConfig cfg;
  cfg.sim.topology.k = 16;
  cfg.sim.topology.n = 2;
  cfg.sim.routing = RoutingKind::TFAR;
  cfg.sim.vcs = 1;
  cfg.traffic.load = 0.5;
  cfg.detector.keep_records = false;
  auto sim = std::make_unique<Simulation>(cfg);
  sim->run_cycles(3000);
  sim->network().set_shards(shards);
  for (auto _ : state) {
    sim->injection().tick(sim->network());
    sim->network().step();
    sim->detector().tick(sim->network());
  }
  state.SetItemsProcessed(state.iterations() *
                          sim->network().topology().num_nodes());
}
BENCHMARK(BM_NetworkStepSharded)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Iterations(kShardedIterations)
    ->UseRealTime();

/// Empty-network cycle rate: the activity-gated scheduler's floor. With no
/// messages anywhere all three active sets are empty, so a step is three
/// first()-returns-(-1) probes — cost independent of network size. The dense
/// capture runs the same empty network under the --step-dense oracle sweep,
/// which pays O(nodes + channels) per cycle; the pair bounds the win.
void BM_NetworkStepIdle(benchmark::State& state, bool dense) {
  ExperimentConfig cfg;
  cfg.sim.topology.k = 16;
  cfg.sim.topology.n = 2;
  cfg.sim.routing = RoutingKind::TFAR;
  Simulation sim(cfg);
  sim.network().set_step_dense(dense);
  for (auto _ : state) {
    sim.network().step();
  }
  state.SetItemsProcessed(state.iterations() *
                          sim.network().topology().num_nodes());
}
BENCHMARK_CAPTURE(BM_NetworkStepIdle, event, false);
BENCHMARK_CAPTURE(BM_NetworkStepIdle, dense, true);

/// Light-traffic cycle rate (load 0.1, 16-ary 2-cube): most nodes and
/// channels are quiet most cycles, so the active sets visit a small working
/// set while the dense oracle still sweeps all 256 nodes and 1088 channels.
/// This is the paper's common operating regime and the headline number for
/// the event-driven core.
void BM_NetworkStepLowLoad(benchmark::State& state, bool dense) {
  // Unlike saturated_sim, recovery stays on: a light network's steady state
  // is a handful of in-flight messages, not congestion wedged by
  // recovery=None during warmup.
  ExperimentConfig cfg;
  cfg.sim.topology.k = 16;
  cfg.sim.topology.n = 2;
  cfg.sim.routing = RoutingKind::TFAR;
  cfg.sim.vcs = 1;
  cfg.traffic.load = 0.1;
  auto sim = std::make_unique<Simulation>(cfg);
  sim->run_cycles(3000);
  sim->network().set_step_dense(dense);
  for (auto _ : state) {
    sim->injection().tick(sim->network());
    sim->network().step();
  }
  state.SetItemsProcessed(state.iterations() *
                          sim->network().topology().num_nodes());
}
BENCHMARK_CAPTURE(BM_NetworkStepLowLoad, event, false);
BENCHMARK_CAPTURE(BM_NetworkStepLowLoad, dense, true);

/// Saturation cycle rate under the dense oracle, against BM_NetworkStep/16
/// (same configuration, event-driven): the activity gate must cost under 10%
/// when nearly everything has work every cycle.
void BM_NetworkStepSaturatedDense(benchmark::State& state) {
  auto sim = saturated_sim(16, 0.4);
  sim->network().set_step_dense(true);
  for (auto _ : state) {
    sim->injection().tick(sim->network());
    sim->network().step();
  }
  state.SetItemsProcessed(state.iterations() *
                          sim->network().topology().num_nodes());
}
BENCHMARK(BM_NetworkStepSaturatedDense);

/// Same cycle with full telemetry attached (interval series + heatmap +
/// phase profiler, default 100-cycle cadence): budget <5% over BM_NetworkStep.
void BM_NetworkStepTelemetry(benchmark::State& state) {
  const auto k = static_cast<int>(state.range(0));
  auto sim = saturated_sim(k, 0.4, /*telemetry=*/true);
  for (auto _ : state) {
    sim->injection().tick(sim->network());
    sim->network().step();
    sim->telemetry()->tick(sim->network(), sim->detector());
  }
  state.SetItemsProcessed(state.iterations() *
                          sim->network().topology().num_nodes());
}
BENCHMARK(BM_NetworkStepTelemetry)->Arg(8)->Arg(16);

/// Same cycle with the observability layer attached (delivery-latency hook +
/// default 100-cycle metrics sampling, no stream): budget <5% over
/// BM_NetworkStep — amortized, one sample per 100 cycles plus the
/// null-guarded delivery branch.
void BM_NetworkStepMetrics(benchmark::State& state) {
  const auto k = static_cast<int>(state.range(0));
  auto sim = saturated_sim(k, 0.4, /*telemetry=*/false, /*obs=*/true);
  for (auto _ : state) {
    sim->injection().tick(sim->network());
    sim->network().step();
    sim->obs()->tick(sim->network(), sim->detector());
  }
  state.SetItemsProcessed(state.iterations() *
                          sim->network().topology().num_nodes());
}
BENCHMARK(BM_NetworkStepMetrics)->Arg(8)->Arg(16);

/// The BM_NetworkStep/16 harness re-run from a recorded arrival stream:
/// bounds the trace-replay tick overhead against the Bernoulli baseline
/// (budget <5%). The capture — the identical configuration driven far enough
/// to cover warmup plus every measured iteration — happens once per process
/// and goes through a real temp file, exactly as production replay does.
/// Iterations are pinned so the measured loop never outruns the trace.
constexpr Cycle kReplayWarmCycles = 3000;
constexpr int kReplayIterations = 4000;

SimConfig replay_sim_config() {
  SimConfig cfg;
  cfg.topology.k = 16;
  cfg.topology.n = 2;
  cfg.routing = RoutingKind::TFAR;
  cfg.vcs = 1;
  return cfg;
}

const std::string& replay_trace_path() {
  static const std::string path = [] {
    const std::string out =
        (std::filesystem::temp_directory_path() / "flexnet_bench_replay.trace")
            .string();
    const SimConfig cfg = replay_sim_config();
    Network net(cfg, NetworkDeps{nullptr, make_routing(cfg),
                                 make_selection(cfg.selection)});
    TrafficConfig traffic;
    traffic.load = 0.4;
    InjectionProcess inj(net, traffic, cfg.seed);
    std::ofstream file(out, std::ios::binary | std::ios::trunc);
    TraceHeader header;
    header.nodes = net.topology().num_nodes();
    header.traffic = traffic;
    header.avg_distance = inj.average_distance();
    header.capacity = inj.capacity_flits_per_node();
    header.offered = inj.offered_flit_rate();
    TraceCaptureWriter writer(file, header);
    inj.set_capture(&writer);
    for (Cycle c = 0; c < kReplayWarmCycles + kReplayIterations + 1000; ++c) {
      inj.tick(net);
      net.step();
    }
    inj.set_capture(nullptr);
    writer.finish();
    return out;
  }();
  return path;
}

void BM_NetworkStepTraceReplay(benchmark::State& state) {
  const SimConfig cfg = replay_sim_config();
  Network net(cfg, NetworkDeps{nullptr, make_routing(cfg),
                               make_selection(cfg.selection)});
  TraceReplayInjection inj(net, replay_trace_path(), cfg.seed);
  while (net.now() < kReplayWarmCycles) {
    inj.tick(net);
    net.step();
  }
  for (auto _ : state) {
    inj.tick(net);
    net.step();
  }
  state.SetItemsProcessed(state.iterations() * net.topology().num_nodes());
}
BENCHMARK(BM_NetworkStepTraceReplay)->Iterations(kReplayIterations);

/// Same harness under a mean-normalized burst pace profile: the per-cycle
/// multiplier lookup plus the usual Bernoulli draws. Budget <5% over
/// BM_NetworkStep/16.
void BM_NetworkStepPaced(benchmark::State& state) {
  ExperimentConfig cfg;
  cfg.sim.topology.k = 16;
  cfg.sim.topology.n = 2;
  cfg.sim.routing = RoutingKind::TFAR;
  cfg.sim.vcs = 1;
  cfg.traffic.load = 0.4;
  cfg.detector.recovery = RecoveryKind::None;
  cfg.workload = parse_workload_spec("pace:burst(100,0.2,4)");
  auto sim = std::make_unique<Simulation>(cfg);
  sim->run_cycles(3000);
  for (auto _ : state) {
    sim->injection().tick(sim->network());
    sim->network().step();
  }
  state.SetItemsProcessed(state.iterations() *
                          sim->network().topology().num_nodes());
}
BENCHMARK(BM_NetworkStepPaced);

/// One forced metrics sample on the frozen saturated network: the full
/// stall-age scan, union-find component pass, census and score. This is the
/// cost paid once per --metrics-interval; the CI gate tracks it.
void BM_MetricsSample(benchmark::State& state) {
  auto sim = saturated_sim(16, 0.5, /*telemetry=*/false, /*obs=*/true);
  for (auto _ : state) {
    sim->obs()->sample(sim->network(), sim->detector());
    benchmark::DoNotOptimize(sim->obs()->last_sample().score);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MetricsSample);

void BM_CwgBuild(benchmark::State& state) {
  auto sim = saturated_sim(16, 0.5);
  for (auto _ : state) {
    const Cwg cwg = Cwg::from_network(sim->network());
    benchmark::DoNotOptimize(cwg.num_blocked_messages());
  }
}
BENCHMARK(BM_CwgBuild);

void BM_KnotDetection(benchmark::State& state) {
  auto sim = saturated_sim(16, 0.5);
  const Cwg cwg = Cwg::from_network(sim->network());
  for (auto _ : state) {
    const auto knots = find_knots(cwg);
    benchmark::DoNotOptimize(knots.size());
  }
}
BENCHMARK(BM_KnotDetection);

void BM_FullDetectionPass(benchmark::State& state) {
  auto sim = saturated_sim(16, 0.5);
  DetectorConfig cfg;
  cfg.recovery = RecoveryKind::None;
  cfg.keep_records = false;
  // Oracle path: every pass rebuilds the CWG and runs Tarjan over all VCs.
  // This is the number the CI perf gate tracks — it bounds the worst case
  // and must not regress even though the default pipeline rarely pays it.
  cfg.full_rebuild = true;
  DeadlockDetector detector(cfg, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(detector.run_detection(sim->network()));
  }
}
BENCHMARK(BM_FullDetectionPass);

/// The incremental pipeline in BM_FullDetectionPass's exact harness (same
/// frozen network, same config, only the pipeline flag differs), so the pair
/// is directly comparable. This is the steady-state cost of interval=1
/// detection between graph changes — the dominant regime both at idle (the
/// zero-blocked fast path answers) and during a wedged saturation phase (the
/// arc epoch stands still, so the cached verdict is re-checked for
/// quiescence and re-reported without a rebuild or SCC). The cost of a pass
/// that *does* rebuild is bounded separately by BM_CwgRebuild +
/// BM_KnotDetection and, worst-case, BM_FullDetectionPass.
void BM_DetectionIncremental(benchmark::State& state, double load) {
  auto sim = saturated_sim(16, load);
  DetectorConfig cfg;
  cfg.recovery = RecoveryKind::None;  // keep the network frozen, as the oracle
  cfg.keep_records = false;
  DeadlockDetector detector(cfg, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(detector.run_detection(sim->network()));
  }
}
BENCHMARK_CAPTURE(BM_DetectionIncremental, idle, 0.05);
BENCHMARK_CAPTURE(BM_DetectionIncremental, sat, 0.5);

/// Allocation-free rebuild of one persistent Cwg, as the detector does on
/// every non-skipped pass. Contrast with BM_CwgBuild, which constructs a
/// fresh Cwg (and all its vectors) from scratch each call.
void BM_CwgRebuild(benchmark::State& state) {
  auto sim = saturated_sim(16, 0.5);
  Cwg cwg;
  for (auto _ : state) {
    cwg.rebuild_from_network(sim->network());
    benchmark::DoNotOptimize(cwg.num_blocked_messages());
  }
}
BENCHMARK(BM_CwgRebuild);

void BM_SccDense(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Digraph g(n);
  Pcg32 rng(7);
  for (int e = 0; e < 4 * n; ++e) {
    g.add_edge(static_cast<int>(rng.bounded(static_cast<std::uint32_t>(n))),
               static_cast<int>(rng.bounded(static_cast<std::uint32_t>(n))));
  }
  for (auto _ : state) {
    const SccResult scc = strongly_connected_components(g);
    benchmark::DoNotOptimize(scc.num_components);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_SccDense)->Arg(1000)->Arg(10000);

void BM_CycleEnumerationCapped(benchmark::State& state) {
  // A ring with chords: many cycles, enumeration capped at 1000.
  constexpr int kN = 64;
  Digraph g(kN);
  for (int i = 0; i < kN; ++i) g.add_edge(i, (i + 1) % kN);
  for (int i = 0; i < kN; i += 4) g.add_edge(i, (i + 7) % kN);
  for (int i = 0; i < kN; i += 8) g.add_edge((i + 3) % kN, i);
  for (auto _ : state) {
    const CycleEnumeration r = enumerate_simple_cycles(g, 1000);
    benchmark::DoNotOptimize(r.count);
  }
}
BENCHMARK(BM_CycleEnumerationCapped);

/// Knot cycle density of the knot the saturated TFAR network freezes into
/// (71 VCs): the detector's per-knot characterization cost.
void BM_KnotCycleDensity(benchmark::State& state) {
  auto sim = saturated_sim(16, 0.5);
  const Cwg cwg = Cwg::from_network(sim->network());
  const std::vector<Knot> knots = find_knots(cwg);
  if (knots.empty()) {
    state.SkipWithError("saturated network holds no knot");
    return;
  }
  const Knot& knot = *std::max_element(
      knots.begin(), knots.end(), [](const Knot& a, const Knot& b) {
        return a.knot_vcs.size() < b.knot_vcs.size();
      });
  const std::int64_t cap = DetectorConfig{}.knot_density_cap;
  for (auto _ : state) {
    const CycleEnumeration r = knot_cycle_density(cwg, knot, cap);
    benchmark::DoNotOptimize(r.count);
  }
}
BENCHMARK(BM_KnotCycleDensity);

/// Host-speed calibration for bench/compare_bench.py: sorts a copy of 4096
/// pseudo-random integers. It calls no flexnet code, so no library change
/// can move it, and its ratio between two hosts approximates their general
/// speed ratio.
void BM_Calibration(benchmark::State& state) {
  std::vector<std::uint32_t> input(4096);
  std::uint32_t x = 2463534242U;  // xorshift32
  for (auto& v : input) {
    x ^= x << 13;
    x ^= x >> 17;
    x ^= x << 5;
    v = x;
  }
  benchmark::DoNotOptimize(input.data());
  benchmark::ClobberMemory();
  std::vector<std::uint32_t> work(input.size());
  for (auto _ : state) {
    std::copy(input.begin(), input.end(), work.begin());
    std::sort(work.begin(), work.end());
    benchmark::DoNotOptimize(work.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_Calibration);

void BM_ImmobilityCheck(benchmark::State& state) {
  auto sim = saturated_sim(16, 0.5);
  const Network& net = sim->network();
  for (auto _ : state) {
    int immobile = 0;
    for (const MessageId id : net.active_messages()) {
      if (net.message_immobile(id)) ++immobile;
    }
    benchmark::DoNotOptimize(immobile);
  }
}
BENCHMARK(BM_ImmobilityCheck);

}  // namespace
}  // namespace flexnet

BENCHMARK_MAIN();
