// perfbench_exec: one execution of one benchmark workload, in this process.
//
//   perfbench_exec --workload paper16_sweep --seed 7 --dir <work dir>
//   perfbench_exec --workload burst32_capture --seed 7 --dir <dir> --trace
//
// Every workload is a sweep_cli recipe and goes through the API users call:
// experiment_from_options -> ExperimentConfig -> Simulation -> run(). Points
// run one after another on this thread, seeded the way sweep_loads seeds
// them. Untraced, it times construction, run() and teardown of each
// point. With --trace it instead drives the per-cycle sequence of
// Simulation::run_cycles through public calls, records a span around each
// layer's entry point and writes the spans to <dir>/spans.bin.
//
// Either way it checks every point (Network::check_invariants, message
// conservation), replays every captured deadlock snapshot, and prints one
// JSON line: timings, failed/attempted operations, and a digest of the
// simulated statistics that a speed-only change must leave unchanged.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "flexnet.hpp"

namespace {

using namespace flexnet;
using Clock = std::chrono::steady_clock;

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

// --- workloads ---------------------------------------------------------------

struct Workload {
  ExperimentConfig base;
  std::vector<double> loads;
};

// The benchmark's recipes. The flag lists are sweep_cli command lines; `dir`
// receives every file a run writes.
Workload make_workload(std::string_view name, std::uint64_t seed,
                       const std::string& dir) {
  std::vector<std::string> args;
  if (name == "paper16_sweep") {
    // Paper Fig. 6 baseline: 16-ary 2-cube, TFAR, 1 VC, serial engine. The
    // window is short so that a run holds many executions: host speed here
    // drifts within a minute, and more executions give a steadier median.
    args = {"--k", "16", "--n", "2", "--routing", "TFAR", "--vcs", "1",
            "--buffer", "2", "--length", "32", "--traffic", "Uniform",
            "--loads", "0.1,0.2,0.3,0.4,0.5", "--warmup", "2000",
            "--measure", "5000"};
  } else if (name == "burst32_capture") {
    // The burst-at-scale recipe, serial, with every writer on.
    args = {"--k", "32", "--n", "3", "--uni", "--routing", "DOR", "--vcs",
            "1", "--workload", "pace:burst(200,0.2,4)", "--loads", "0.1",
            "--warmup", "200", "--measure", "2800",
            "--capture-deadlocks", dir + "/captures", "--capture-limit", "16",
            "--metrics", dir + "/metrics.ndjson", "--metrics-interval", "50",
            "--telemetry-json", dir + "/telemetry.json"};
  } else {
    throw std::invalid_argument("unknown workload: " + std::string(name));
  }
  args.insert(args.end(), {"--interval", "50", "--recovery", "RemoveOldest",
                           "--seed", std::to_string(seed)});

  std::vector<const char*> argv{"sweep_cli"};
  for (const std::string& a : args) argv.push_back(a.c_str());
  std::string error;
  const auto opts =
      Options::parse(static_cast<int>(argv.size()), argv.data(), &error);
  if (!opts) throw std::invalid_argument(error);
  return {experiment_from_options(*opts), loads_from_options(*opts)};
}

// Point i of the sweep, seeded exactly as sweep_loads seeds it.
ExperimentConfig point_config(const Workload& w, std::size_t i) {
  ExperimentConfig config = w.base;
  config.traffic.load = w.loads[i];
  config.sim.seed = splitmix64(w.base.sim.seed + i + 1);
  return config;
}

// --- spans -------------------------------------------------------------------

// One name per layer entry point the traced run times from outside.
enum class SpanName : std::uint8_t {
  Point,              // one simulated point, construction to teardown
  Construct,          // Simulation construction
  WorkloadTick,       // InjectionProcess::tick
  SimStep,            // Network::step
  CoreDetect,         // DeadlockDetector::tick
  SnapshotCapture,    // KnotCaptureHook::on_knot
  TelemetryTick,      // Telemetry::tick
  ObsTick,            // ObsCollector::tick
  MetricsSample,      // MetricsCollector::sample
  Window,             // end of warmup: statistics reset, window start
  ObsFinalize,        // ObsCollector::finalize
  TelemetryFinalize,  // Telemetry::finalize + manifest
  Check,              // the benchmark's own checks (not wall time)
  Teardown,           // Simulation destruction: closes streams
  kCount_,
};

constexpr std::array<std::string_view,
                     static_cast<std::size_t>(SpanName::kCount_)>
    kSpanNames = {"exp.point",       "exp.construct",      "workload.tick",
                  "sim.step",        "core.detect",        "snapshot.capture",
                  "telemetry.tick",  "obs.tick",           "metrics.sample",
                  "exp.window",      "obs.finalize",       "telemetry.finalize",
                  "exp.check",       "exp.teardown"};

constexpr std::uint8_t kFlagPass = 1;  // a core.detect span that ran a pass

// Spans kept in memory and written once at the end. A span's parent is the
// span open when it began.
class SpanLog {
 public:
  struct Span {
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::int32_t parent = -1;
    std::int32_t cycle = 0;
    std::uint8_t name = 0;
    std::uint8_t point = 0;
    std::uint8_t flags = 0;
  };

  class Scope {
   public:
    Scope(SpanLog& log, std::int32_t index) : log_(log), index_(index) {}
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope() { log_.close(index_); }
    void flag(std::uint8_t bits) { log_.spans_[index_].flags |= bits; }

   private:
    SpanLog& log_;
    std::int32_t index_;
  };

  explicit SpanLog(Clock::time_point origin) : origin_(origin) {}

  [[nodiscard]] Scope open(SpanName name, std::size_t point, Cycle cycle) {
    const auto index = static_cast<std::int32_t>(spans_.size());
    Span& s = spans_.emplace_back();
    s.parent = open_.empty() ? -1 : open_.back();
    s.cycle = static_cast<std::int32_t>(cycle);
    s.name = static_cast<std::uint8_t>(name);
    s.point = static_cast<std::uint8_t>(point);
    open_.push_back(index);
    s.start_ns = since_origin();
    return Scope(*this, index);
  }

  // Fixed 32-byte little-endian records:
  // start_ns i64, end_ns i64, parent i32, cycle i32, name u8, point u8,
  // flags u8, 5 pad bytes.
  void write(const std::string& path) const {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out) throw std::runtime_error("cannot open " + path);
    for (const Span& s : spans_) {
      char rec[32] = {};
      std::memcpy(rec, &s.start_ns, 8);
      std::memcpy(rec + 8, &s.end_ns, 8);
      std::memcpy(rec + 16, &s.parent, 4);
      std::memcpy(rec + 20, &s.cycle, 4);
      rec[24] = static_cast<char>(s.name);
      rec[25] = static_cast<char>(s.point);
      rec[26] = static_cast<char>(s.flags);
      out.write(rec, sizeof rec);
    }
    if (!out) throw std::runtime_error("cannot write " + path);
  }

  void reserve(std::size_t n) { spans_.reserve(n); }

 private:
  std::int64_t since_origin() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                origin_)
        .count();
  }
  void close(std::int32_t index) {
    spans_[index].end_ns = since_origin();
    open_.pop_back();
  }

  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<std::int32_t> open_;
};

// Times the detector's capture hook from outside. Installed on every traced
// point, so a workload without captures still records the hook calls the
// detector makes (with nothing behind them).
class TimedCapture final : public KnotCaptureHook {
 public:
  TimedCapture(KnotCaptureHook* inner, SpanLog& log, std::size_t point)
      : inner_(inner), log_(log), point_(point) {}

  void on_knot(const Network& net, const Cwg& cwg, const Knot& knot,
               const DeadlockRecord& record) override {
    const auto span = log_.open(SpanName::SnapshotCapture, point_, net.now());
    if (inner_ != nullptr) inner_->on_knot(net, cwg, knot, record);
  }

 private:
  KnotCaptureHook* inner_;
  SpanLog& log_;
  std::size_t point_;
};

// --- results -----------------------------------------------------------------

// Sums over the deadlock records the detector holds (those since its last
// statistics reset).
struct RecordSums {
  std::int64_t set_sizes = 0;
  std::int64_t density = 0;
  std::int64_t capped = 0;
};

RecordSums sum_records(const DeadlockDetector& det) {
  RecordSums sums;
  for (const DeadlockRecord& r : det.records()) {
    sums.set_sizes += r.deadlock_set_size;
    if (r.knot_cycle_density > 0) sums.density += r.knot_cycle_density;
    if (r.density_capped) ++sums.capped;
  }
  return sums;
}

// The simulated statistics a speed-only change must leave identical.
struct Stats {
  std::int64_t delivered = 0;
  std::int64_t recovered = 0;
  std::int64_t deadlocks = 0;
  std::int64_t transient_knots = 0;
  std::int64_t set_size_sum = 0;
  std::int64_t density_sum = 0;
  std::int64_t captures = 0;
  std::uint64_t digest = 14695981039346656037ull;  // FNV-1a over the points

  void add_point(const WindowMetrics& window, const DeadlockDetector& det,
                 const DeadlockCorpus* corpus) {
    const RecordSums sums = sum_records(det);
    const std::int64_t captured = corpus != nullptr ? corpus->captured() : 0;
    const std::array<std::int64_t, 7> fields = {
        window.delivered, window.recovered, window.deadlocks,
        det.transient_knots(), sums.set_sizes, sums.density, captured};
    for (std::int64_t v : fields) {
      for (int b = 0; b < 8; ++b) {
        digest ^= static_cast<std::uint64_t>(v >> (8 * b)) & 0xffu;
        digest *= 1099511628211ull;
      }
    }
    delivered += fields[0];
    recovered += fields[1];
    deadlocks += fields[2];
    transient_knots += fields[3];
    set_size_sum += fields[4];
    density_sum += fields[5];
    captures += fields[6];
  }
};

// An operation is one simulated point or one snapshot replay.
struct Operations {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::string> errors;

  void fail(std::string what) {
    ++failed;
    errors.push_back(std::move(what));
  }
};

// Layer counters of a traced execution, summed over its points. Counts the
// spans already give (cycles, capture hook calls) are taken from the spans.
struct LayerCounts {
  std::array<std::int64_t, kNumSimPhases> phase_ns{};
  std::int64_t passes = 0;
  std::int64_t skipped_passes = 0;
  std::int64_t pressure_passes = 0;
  std::int64_t closure_sum = 0;
  std::int64_t knots_found = 0;
  std::int64_t deadlocks = 0;
  std::int64_t transient_knots = 0;
  std::int64_t density_cycles = 0;
  std::int64_t density_capped = 0;
  std::int64_t blocked_sum = 0;
  std::int64_t active_channels_sum = 0;
  std::int64_t delivered = 0;
  std::int64_t flits_delivered = 0;
  std::int64_t generated = 0;
  std::int64_t captures = 0;
  std::int64_t capture_duplicates = 0;
  std::int64_t capture_bytes = 0;
  std::int64_t obs_samples = 0;

  // Records and tallies are dropped at the end of warmup, so they are
  // folded in before every reset and once at the end of the point.
  void add_detector_statistics(const DeadlockDetector& det) {
    const RecordSums sums = sum_records(det);
    deadlocks += det.total_deadlocks();
    transient_knots += det.transient_knots();
    density_cycles += sums.density;
    density_capped += sums.capped;
  }
};

struct Timings {
  double wall_s = 0;
  double setup_s = 0;
  double run_s = 0;
  std::int64_t cycles = 0;
};

double seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

// The benchmark's per-point gate: structural invariants and conservation of
// messages (generated = delivered + recovered + in network + queued).
void check_point(const Network& net, std::size_t point, Operations& ops) {
  try {
    net.check_invariants();
    const Network::Counters& c = net.counters();
    const auto in_network =
        static_cast<std::int64_t>(net.active_messages().size());
    const std::int64_t queued = net.queued_message_count();
    if (c.generated != c.delivered + c.recovered + in_network + queued) {
      std::ostringstream msg;
      msg << "point " << point << ": conservation broken: generated "
          << c.generated << " != delivered " << c.delivered << " + recovered "
          << c.recovered << " + in network " << in_network << " + queued "
          << queued;
      ops.fail(msg.str());
    }
  } catch (const std::exception& e) {
    ops.fail("point " + std::to_string(point) + ": " + e.what());
  }
}

// --- untraced execution ------------------------------------------------------

void run_untraced(const Workload& w, Timings& t, Stats& stats,
                  Operations& ops) {
  for (std::size_t i = 0; i < w.loads.size(); ++i) {
    ++ops.attempted;
    const ExperimentConfig config = point_config(w, i);
    try {
      const auto t0 = Clock::now();
      std::optional<Simulation> sim;
      sim.emplace(config);
      const auto t1 = Clock::now();
      const ExperimentResult result = sim->run();
      const auto t2 = Clock::now();
      check_point(sim->network(), i, ops);
      stats.add_point(result.window, sim->detector(), sim->corpus());
      const auto t3 = Clock::now();
      sim.reset();
      const auto t4 = Clock::now();
      t.setup_s += seconds(t1 - t0);
      t.run_s += seconds(t2 - t1);
      t.wall_s += seconds(t2 - t0) + seconds(t4 - t3);
      t.cycles += config.run.warmup + config.run.measure;
    } catch (const std::exception& e) {
      ops.fail("point " + std::to_string(i) + ": " + e.what());
    }
  }
}

// --- traced execution --------------------------------------------------------

// Simulation::run_cycles, one public call at a time, each inside its span.
void traced_cycles(Simulation& sim, Cycle cycles, std::size_t point,
                   MetricsCollector* window, SpanLog& log, LayerCounts& n) {
  Network& net = sim.network();
  DeadlockDetector& det = sim.detector();
  InjectionProcess& injection = sim.injection();
  Telemetry* telemetry = sim.telemetry();
  ObsCollector* obs = sim.obs();
  for (Cycle i = 0; i < cycles; ++i) {
    const Cycle c = net.now();
    {
      const auto span = log.open(SpanName::WorkloadTick, point, c);
      injection.tick(net);
    }
    n.active_channels_sum += static_cast<std::int64_t>(net.active_channels());
    {
      const auto span = log.open(SpanName::SimStep, point, c);
      net.step();
    }
    n.blocked_sum += net.blocked_message_count();
    {
      const std::int64_t passes = det.invocations();
      const std::int64_t skipped = det.skipped_passes();
      auto span = log.open(SpanName::CoreDetect, point, c);
      det.tick(net);
      if (det.invocations() != passes) {
        span.flag(kFlagPass);
        n.passes += det.invocations() - passes;
        n.skipped_passes += det.skipped_passes() - skipped;
        if (det.pressure().valid) {
          ++n.pressure_passes;
          n.closure_sum += det.pressure().closure_size;
          n.knots_found += det.pressure().knots;
        }
      }
    }
    {
      const auto span = log.open(SpanName::TelemetryTick, point, c);
      if (telemetry != nullptr) telemetry->tick(net, det);
    }
    {
      const auto span = log.open(SpanName::ObsTick, point, c);
      if (obs != nullptr) obs->tick(net, det);
    }
    if (window != nullptr) {
      const auto span = log.open(SpanName::MetricsSample, point, c);
      window->sample(net);
    }
  }
}

std::int64_t directory_bytes(const std::string& dir) {
  std::int64_t bytes = 0;
  std::error_code ec;
  if (!std::filesystem::is_directory(dir, ec)) return 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.is_regular_file()) {
      bytes += static_cast<std::int64_t>(entry.file_size());
    }
  }
  return bytes;
}

// Simulation::run()'s end-of-run work and result, for the attachments the
// recipes configure (tracer, trace capture and forensics are off in all).
ExperimentResult finish_run(Simulation& sim, const WindowMetrics& window,
                            SpanLog& log, std::size_t point) {
  const ExperimentConfig& config = sim.config();
  Network& net = sim.network();
  DeadlockDetector& det = sim.detector();
  ExperimentResult result;
  result.load = config.traffic.load;
  result.capacity_flits_per_node = sim.injection().capacity_flits_per_node();
  result.offered_flit_rate = sim.injection().offered_flit_rate();
  result.avg_distance = sim.injection().average_distance();
  result.window = window;
  if (result.capacity_flits_per_node > 0) {
    result.normalized_throughput =
        window.throughput_flits_per_node / result.capacity_flits_per_node;
  }
  if (result.offered_flit_rate > 0) {
    result.accepted_ratio =
        window.throughput_flits_per_node / result.offered_flit_rate;
  }
  result.saturated = result.accepted_ratio < 0.95;
  if (const DeadlockCorpus* corpus = sim.corpus()) {
    result.deadlocks_captured = corpus->captured();
    result.capture_duplicates = corpus->duplicates();
    result.capture_dropped = corpus->dropped();
  }
  result.detector_invocations = det.invocations();
  result.detector_skipped_passes = det.skipped_passes();
  sim.flush_trace();

  ObsCollector* obs = sim.obs();
  {
    const auto span = log.open(SpanName::ObsFinalize, point, net.now());
    if (obs != nullptr) {
      obs->finalize(net, det);
      result.obs = obs->artifacts();
    }
  }
  const auto span = log.open(SpanName::TelemetryFinalize, point, net.now());
  Telemetry* telemetry = sim.telemetry();
  if (telemetry == nullptr) return result;
  telemetry->finalize(net, det);
  TelemetryArtifacts& artifacts = result.telemetry;
  artifacts.enabled = true;
  const IntervalRecorder& series = telemetry->interval_series();
  artifacts.interval_samples = series.size();
  artifacts.samples_dropped = series.dropped();
  for (std::size_t i = 0; i < series.size(); ++i) {
    artifacts.deadlocks_in_series += series.at(i).deadlocks;
  }
  artifacts.heatmap_ascii = telemetry->heatmap().ascii_grid(
      net, SpatialHeatmap::Field::Traversals);
  artifacts.profile_table = telemetry->profiler().table();
  if (!config.telemetry.heatmap_csv_path.empty()) {
    std::ofstream csv(config.telemetry.heatmap_csv_path, std::ios::trunc);
    if (!csv) {
      throw std::runtime_error("cannot open " +
                               config.telemetry.heatmap_csv_path);
    }
    telemetry->heatmap().write_csv(csv, net);
    artifacts.heatmap_csv_path = config.telemetry.heatmap_csv_path;
  }
  if (!config.telemetry.manifest_path.empty()) {
    std::ofstream manifest(config.telemetry.manifest_path, std::ios::trunc);
    if (!manifest) {
      throw std::runtime_error("cannot open " + config.telemetry.manifest_path);
    }
    write_manifest_json(manifest, config, result, *telemetry, net, obs);
    artifacts.manifest_path = config.telemetry.manifest_path;
  }
  return result;
}

void run_traced(const Workload& w, SpanLog& log, Timings& t, Stats& stats,
                Operations& ops, LayerCounts& n) {
  for (std::size_t i = 0; i < w.loads.size(); ++i) {
    ++ops.attempted;
    const ExperimentConfig config = point_config(w, i);
    // Declared before the simulation so they outlive its detector.
    PhaseProfiler own_profiler;
    std::optional<TimedCapture> capture;
    std::optional<Simulation> sim;
    try {
      const auto t0 = Clock::now();
      const auto point_span = log.open(SpanName::Point, i, 0);
      {
        const auto span = log.open(SpanName::Construct, i, 0);
        sim.emplace(config);
      }
      const auto t1 = Clock::now();
      Network& net = sim->network();
      DeadlockDetector& det = sim->detector();

      // Phase split from the program's own PhaseProfiler: Telemetry's when
      // telemetry is on, otherwise one installed beside the other hooks.
      PhaseProfiler* profiler = &own_profiler;
      if (Telemetry* telemetry = sim->telemetry()) {
        profiler = &telemetry->profiler();
      } else {
        NetworkHooks hooks = net.hooks();
        hooks.profiler = profiler;
        net.install_hooks(hooks);
        det.set_profiler(profiler);
      }
      // The corpus is the detector's capture hook; run() tells it when the
      // measurement window is open, and so must this loop. The snapshots it
      // writes still differ in one part: the Simulation's own (private)
      // MetricsCollector, which they record, never begins its window here.
      auto* corpus = dynamic_cast<DeadlockCorpus*>(det.capture());
      const auto set_measuring = [&](bool on) {
        if (corpus != nullptr) {
          corpus->set_run_state(config.run.warmup, config.run.measure,
                                config.run.sample_every, on);
        }
      };
      capture.emplace(det.capture(), log, i);
      det.set_capture(&*capture);
      MetricsCollector window(config.run.sample_every);
      const Network::Counters start = net.counters();

      traced_cycles(*sim, config.run.warmup, i, nullptr, log, n);
      {
        const auto span = log.open(SpanName::Window, i, net.now());
        n.add_detector_statistics(det);
        det.reset_statistics();
        window.begin_window(net);
        set_measuring(true);
      }
      traced_cycles(*sim, config.run.measure, i, &window, log, n);
      set_measuring(false);
      const ExperimentResult result = finish_run(
          *sim, window.finish(net, det, config.count_recovered_as_delivered),
          log, i);
      const auto t2 = Clock::now();
      {
        const auto span = log.open(SpanName::Check, i, net.now());
        check_point(net, i, ops);
        stats.add_point(result.window, det, sim->corpus());
        n.add_detector_statistics(det);
        for (std::size_t p = 0; p < kNumSimPhases; ++p) {
          n.phase_ns[p] += profiler->stats(static_cast<SimPhase>(p)).total_ns;
        }
        n.delivered += net.counters().delivered - start.delivered;
        n.flits_delivered +=
            net.counters().flits_delivered - start.flits_delivered;
        n.generated += net.counters().generated - start.generated;
        n.captures += result.deadlocks_captured;
        n.capture_duplicates += result.capture_duplicates;
        if (ObsCollector* obs = sim->obs()) {
          n.obs_samples += static_cast<std::int64_t>(obs->samples_recorded());
        }
      }
      const auto t3 = Clock::now();
      {
        const auto span = log.open(SpanName::Teardown, i, 0);
        sim.reset();
      }
      const auto t4 = Clock::now();
      t.setup_s += seconds(t1 - t0);
      t.run_s += seconds(t2 - t1);
      t.wall_s += seconds(t2 - t0) + seconds(t4 - t3);
      t.cycles += config.run.warmup + config.run.measure;
    } catch (const std::exception& e) {
      ops.fail("point " + std::to_string(i) + ": " + e.what());
    }
  }
}

// Every captured deadlock must replay to the verdict recorded with it.
void replay_captures(const std::string& dir, Operations& ops) {
  std::error_code ec;
  if (!std::filesystem::is_directory(dir, ec)) return;
  std::vector<std::filesystem::path> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() == ".snap") files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  for (const auto& path : files) {
    ++ops.attempted;
    try {
      const ReplayResult replay =
          replay_capture(read_snapshot_file(path.string()));
      if (!replay.matches) {
        ops.fail(path.filename().string() + ": replay mismatch: " +
                 replay.detail);
      }
    } catch (const std::exception& e) {
      ops.fail(path.filename().string() + ": " + e.what());
    }
  }
}

std::string hex64(std::uint64_t v) {
  std::ostringstream out;
  out << std::hex;
  out.width(16);
  out.fill('0');
  out << v;
  return out.str();
}

void print_result(std::string_view name, std::uint64_t seed, bool traced,
                  const Workload& w, const Timings& t, const Stats& stats,
                  const Operations& ops, const LayerCounts& n) {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  JsonWriter out(std::cout, 0);
  out.begin_object();
  out.field("workload", name);
  out.field("seed", seed);
  out.field("traced", traced);
  out.field("points", static_cast<std::int64_t>(w.loads.size()));
  out.field("cycles", t.cycles);
  out.field("wall_s", t.wall_s);
  out.field("setup_s", t.setup_s);
  out.field("run_s", t.run_s);
  out.field("peak_rss_kb", static_cast<std::int64_t>(usage.ru_maxrss));
  out.field("attempted", ops.attempted);
  out.field("failed", ops.failed);
  out.key("errors").begin_array();
  for (const std::string& e : ops.errors) out.value(e);
  out.end_array();
  out.field("digest", hex64(stats.digest));
  out.key("stats").begin_object();
  out.field("delivered", stats.delivered);
  out.field("recovered", stats.recovered);
  out.field("deadlocks", stats.deadlocks);
  out.field("transient_knots", stats.transient_knots);
  out.field("set_size_sum", stats.set_size_sum);
  out.field("density_sum", stats.density_sum);
  out.field("captures", stats.captures);
  out.end_object();
  out.field("compiler", __VERSION__);
  out.field("build_type", PERFBENCH_BUILD_TYPE);
  if (traced) {
    out.key("span_names").begin_array();
    for (std::string_view s : kSpanNames) out.value(s);
    out.end_array();
    out.key("phase_s").begin_object();
    for (std::size_t p = 0; p < kNumSimPhases; ++p) {
      out.field(to_string(static_cast<SimPhase>(p)),
                static_cast<double>(n.phase_ns[p]) * 1e-9);
    }
    out.end_object();
    out.key("counts").begin_object();
    out.field("passes", n.passes);
    out.field("skipped_passes", n.skipped_passes);
    out.field("pressure_passes", n.pressure_passes);
    out.field("closure_sum", n.closure_sum);
    out.field("knots_found", n.knots_found);
    out.field("deadlocks", n.deadlocks);
    out.field("transient_knots", n.transient_knots);
    out.field("density_cycles", n.density_cycles);
    out.field("density_capped", n.density_capped);
    out.field("blocked_sum", n.blocked_sum);
    out.field("active_channels_sum", n.active_channels_sum);
    out.field("delivered", n.delivered);
    out.field("flits_delivered", n.flits_delivered);
    out.field("generated", n.generated);
    out.field("captures", n.captures);
    out.field("capture_duplicates", n.capture_duplicates);
    out.field("capture_bytes", n.capture_bytes);
    out.field("obs_samples", n.obs_samples);
    out.end_object();
  }
  out.end_object();
  std::cout << '\n';
}

}  // namespace

int main(int argc, char** argv) {
  std::string error;
  const auto opts = flexnet::Options::parse(argc, argv, &error);
  if (!opts || !opts->has("workload") || !opts->has("dir")) {
    std::cerr << "usage: perfbench_exec --workload NAME --seed N --dir DIR "
                 "[--trace]\n"
              << error << '\n';
    return 2;
  }
  try {
    const std::string name = opts->get("workload");
    const auto seed = static_cast<std::uint64_t>(opts->get_int("seed", 1));
    const std::string dir = opts->get("dir");
    const bool traced = opts->get_bool("trace", false);
    const Workload w = make_workload(name, seed, dir);

    Timings t;
    Stats stats;
    Operations ops;
    LayerCounts n;
    if (traced) {
      SpanLog log(Clock::now());
      // Up to seven spans per cycle; reserved so no span pays a regrowth.
      const auto cycles = static_cast<std::size_t>(w.base.run.warmup +
                                                   w.base.run.measure);
      log.reserve(w.loads.size() * cycles * 8 + 1024);
      run_traced(w, log, t, stats, ops, n);
      log.write(dir + "/spans.bin");
      n.capture_bytes = directory_bytes(dir + "/captures");
    } else {
      run_untraced(w, t, stats, ops);
    }
    replay_captures(dir + "/captures", ops);
    print_result(name, seed, traced, w, t, stats, ops, n);
  } catch (const std::exception& e) {
    std::cerr << "perfbench_exec: " << e.what() << '\n';
    return 1;
  }
  return 0;
}
