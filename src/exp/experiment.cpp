#include "exp/experiment.hpp"

#include <algorithm>
#include <stdexcept>

#include "routing/routing.hpp"
#include "routing/selection.hpp"
#include "telemetry/manifest.hpp"
#include "util/binio.hpp"
#include "util/parallel.hpp"
#include "workload/replay.hpp"

namespace flexnet {

TraceConfig TraceConfig::with_point_suffix(std::size_t point) const {
  TraceConfig out = *this;
  const std::string suffix = ".p" + std::to_string(point);
  if (!out.chrome_path.empty()) out.chrome_path += suffix;
  if (!out.binary_path.empty()) out.binary_path += suffix;
  if (!out.forensics_dot_prefix.empty()) out.forensics_dot_prefix += suffix + ".";
  return out;
}

SnapshotConfig SnapshotConfig::with_point_suffix(std::size_t point) const {
  SnapshotConfig out = *this;
  const std::string suffix = ".p" + std::to_string(point);
  if (out.checkpoint_every > 0) out.checkpoint_dir += suffix;
  if (!out.capture_dir.empty()) out.capture_dir += suffix;
  return out;
}

namespace {
std::ofstream open_trace_file(const std::string& path) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    throw std::runtime_error("cannot open trace output file: " + path);
  }
  return out;
}
}  // namespace

Simulation::Simulation(const ExperimentConfig& config)
    : config_(config), metrics_(config.run.sample_every) {
  std::vector<std::uint8_t> resumed_obs_state;
  std::uint32_t resumed_version = kSnapshotVersion;
  if (!config_.snapshot.resume_path.empty()) {
    // Resume: the snapshot's configs and run schedule are authoritative (the
    // command line only contributes trace/telemetry/snapshot attachments and
    // the capture tap, which is a run-local attachment like the others).
    const std::string cli_capture = config_.workload.capture_path;
    Snapshot snap = read_snapshot_file(config_.snapshot.resume_path);
    RestoredSim restored = restore_snapshot(snap);
    config_.sim = restored.sim;
    config_.traffic = restored.traffic;
    config_.workload = restored.workload;
    config_.workload.capture_path = cli_capture;
    config_.detector = restored.detector_config;
    config_.run.warmup = snap.meta.warmup;
    config_.run.measure = snap.meta.measure;
    config_.run.sample_every = snap.meta.sample_every;
    network_ = std::move(restored.net);
    injection_ = std::move(restored.injection);
    detector_ = std::move(restored.detector);
    metrics_ = restored.metrics;
    resumed_ = true;
    resumed_measuring_ = snap.meta.measuring;
    resumed_at_cycle_ = snap.meta.cycle;
    resumed_obs_state = std::move(snap.obs_state);
    resumed_version = snap.version;
  } else {
    config_.sim.validate();
    NetworkDeps deps;
    deps.routing = make_routing(config_.sim);
    deps.selection = make_selection(config_.sim.selection);
    network_ = std::make_unique<Network>(config_.sim, std::move(deps));
    injection_ = make_injection(*network_, config_.traffic, config_.workload,
                                config_.sim.seed);
    if (config_.workload.kind == WorkloadKind::Trace) {
      // The trace header carries the capture run's traffic config and
      // normalization; adopt it so manifests and derived rates reproduce the
      // capture byte-for-byte (only the workload block differs).
      config_.traffic =
          static_cast<const TraceReplayInjection&>(*injection_).header().traffic;
    }
    detector_ =
        std::make_unique<DeadlockDetector>(config_.detector, config_.sim.seed);
  }

  if (!config_.workload.capture_path.empty()) {
    capture_out_.open(config_.workload.capture_path,
                      std::ios::binary | std::ios::trunc);
    if (!capture_out_) {
      throw std::runtime_error("cannot open capture trace file: " +
                               config_.workload.capture_path);
    }
    TraceHeader header;
    header.nodes = network_->topology().num_nodes();
    header.traffic = config_.traffic;
    header.avg_distance = injection_->average_distance();
    header.capacity = injection_->capacity_flits_per_node();
    header.offered = injection_->offered_flit_rate();
    capture_writer_ = std::make_unique<TraceCaptureWriter>(capture_out_, header);
    injection_->set_capture(capture_writer_.get());
  }

  if (!config_.snapshot.capture_dir.empty()) {
    corpus_ = std::make_unique<DeadlockCorpus>(
        config_.snapshot.capture_dir, config_.snapshot.capture_limit,
        config_.sim, config_.traffic, config_.workload, config_.detector,
        injection_.get(), detector_.get(), &metrics_);
    sync_corpus_run_state();
    detector_->set_capture(corpus_.get());
  }

  const TraceConfig& trace = config_.trace;
  if (trace.enabled()) {
    tracer_ = std::make_unique<Tracer>();
    std::size_t ring_capacity = trace.ring_capacity;
    if (trace.forensics && ring_capacity == 0) {
      ring_capacity = TraceConfig::kDefaultRingCapacity;
    }
    if (ring_capacity > 0) {
      ring_ = std::make_unique<RingBufferSink>(ring_capacity);
      tracer_->add_sink(ring_.get());
    }
    if (!trace.chrome_path.empty()) {
      chrome_out_ = open_trace_file(trace.chrome_path);
      chrome_sink_ = std::make_unique<ChromeTraceSink>(chrome_out_);
      tracer_->add_sink(chrome_sink_.get());
    }
    if (!trace.binary_path.empty()) {
      binary_out_ = open_trace_file(trace.binary_path);
      binary_sink_ = std::make_unique<BinaryTraceSink>(binary_out_);
      tracer_->add_sink(binary_sink_.get());
    }
    if (trace.forensics) {
      forensics_ = std::make_unique<DeadlockForensics>(ring_.get());
      detector_->set_forensics(forensics_.get());
    }
  }

  if (config_.telemetry.enabled()) {
    telemetry_ = std::make_unique<Telemetry>(config_.telemetry, *network_);
  }

  if (config_.obs.enabled()) {
    obs_ = std::make_unique<ObsCollector>(config_.obs, *network_);
    // Restoring after construction (which re-emits the stream header) makes
    // the resumed stream = header + the records after the checkpoint: the
    // cumulative histograms, watermarks and cadence cursor all come back, so
    // those records are byte-identical to the uninterrupted run's.
    if (!resumed_obs_state.empty()) {
      BinReader in(resumed_obs_state.data(), resumed_obs_state.size());
      obs_->restore_state(in, resumed_version);
    }
  }

  // Assemble the observer surface once every component exists and install it
  // in a single call — the event-driven core has exactly one notification
  // path to keep correct. The step mode honors the (possibly resuming)
  // command line: it is an execution strategy, not simulation state.
  NetworkHooks hooks;
  hooks.tracer = tracer_.get();
  if (telemetry_) telemetry_->contribute_hooks(hooks, *detector_);
  if (obs_) obs_->contribute_hooks(hooks);
  network_->install_hooks(hooks);
  network_->set_step_dense(config_.run.step_dense);
  if (config_.run.shards != 0) {
    // --shards auto: one shard per worker thread, capped so every shard owns
    // at least one router (set_shards rejects an explicit overshoot).
    int shards = config_.run.shards;
    if (shards < 0) {
      shards = static_cast<int>(worker_thread_count());
      const int nodes = network_->topology().num_nodes();
      if (shards > nodes) shards = nodes;
    }
    network_->set_shards(shards);
  }
}

void Simulation::flush_trace() {
  if (tracer_) tracer_->flush();
}

void Simulation::sync_corpus_run_state() noexcept {
  if (corpus_) {
    corpus_->set_run_state(config_.run.warmup, config_.run.measure,
                           config_.run.sample_every, measuring_);
  }
}

Snapshot Simulation::make_checkpoint() const {
  SnapshotMeta meta;
  meta.kind = SnapshotKind::Checkpoint;
  meta.measuring = measuring_;
  meta.warmup = config_.run.warmup;
  meta.measure = config_.run.measure;
  meta.sample_every = config_.run.sample_every;
  Snapshot snap =
      capture_snapshot(meta, config_.sim, config_.traffic, config_.detector,
                       config_.workload, *network_, *injection_, *detector_,
                       metrics_);
  if (obs_) {
    BinWriter out;
    obs_->save_state(out);
    snap.obs_state = std::move(out).bytes();
  }
  return snap;
}

void Simulation::save_snapshot(const std::string& path) const {
  write_snapshot_file(path, make_checkpoint());
}

void Simulation::write_checkpoint() {
  save_snapshot(config_.snapshot.checkpoint_dir + "/ckpt-" +
                std::to_string(network_->now()) + ".snap");
}

void Simulation::run_cycles(Cycle cycles) {
  for (Cycle i = 0; i < cycles; ++i) {
    injection_->tick(*network_);
    network_->step();
    detector_->tick(*network_);
    if (telemetry_) telemetry_->tick(*network_, *detector_);
    if (obs_) obs_->tick(*network_, *detector_);
    if (measuring_) metrics_.sample(*network_);
    if (config_.run.check_invariants &&
        network_->now() % config_.run.check_every == 0) {
      network_->check_invariants();
    }
    if (config_.snapshot.checkpoint_every > 0 &&
        network_->now() % config_.snapshot.checkpoint_every == 0) {
      write_checkpoint();
    }
  }
}

ExperimentResult Simulation::run() {
  if (resumed_ && resumed_measuring_) {
    // Mid-measurement resume: detector statistics and the metrics window
    // came back with the snapshot, so just finish the measured cycles.
    measuring_ = true;
    sync_corpus_run_state();
    run_cycles(std::max<Cycle>(
        config_.run.warmup + config_.run.measure - network_->now(), 0));
  } else {
    // Fresh run, or a resume that landed inside warmup.
    run_cycles(std::max<Cycle>(config_.run.warmup - network_->now(), 0));
    detector_->reset_statistics();
    if (forensics_) forensics_->clear();
    metrics_.begin_window(*network_);
    measuring_ = true;
    sync_corpus_run_state();
    run_cycles(config_.run.measure);
  }
  measuring_ = false;
  sync_corpus_run_state();

  ExperimentResult result;
  result.load = config_.traffic.load;
  result.capacity_flits_per_node = injection_->capacity_flits_per_node();
  result.offered_flit_rate = injection_->offered_flit_rate();
  result.avg_distance = injection_->average_distance();
  result.window =
      metrics_.finish(*network_, *detector_, config_.count_recovered_as_delivered);
  if (result.capacity_flits_per_node > 0) {
    result.normalized_throughput =
        result.window.throughput_flits_per_node / result.capacity_flits_per_node;
  }
  if (result.offered_flit_rate > 0) {
    result.accepted_ratio =
        result.window.throughput_flits_per_node / result.offered_flit_rate;
  }
  result.saturated = result.accepted_ratio < 0.95;
  if (resumed_) {
    result.resumed_from = config_.snapshot.resume_path;
    result.resumed_at_cycle = resumed_at_cycle_;
  }
  if (corpus_) {
    result.deadlocks_captured = corpus_->captured();
    result.capture_duplicates = corpus_->duplicates();
    result.capture_dropped = corpus_->dropped();
  }
  result.detector_invocations = detector_->invocations();
  result.detector_skipped_passes = detector_->skipped_passes();

  if (capture_writer_) {
    // Seal the captured trace (writes the `end <count>` trailer readers use
    // to detect truncation) before anything else can throw.
    injection_->set_capture(nullptr);
    capture_writer_->finish();
  }

  flush_trace();
  if (obs_) {
    // Finalize before the manifest is written so its "metrics" block carries
    // the final summary (lead time included).
    obs_->finalize(*network_, *detector_);
    result.obs = obs_->artifacts();
  }
  if (telemetry_) {
    telemetry_->finalize(*network_, *detector_);
    TelemetryArtifacts& artifacts = result.telemetry;
    artifacts.enabled = true;
    const IntervalRecorder& series = telemetry_->interval_series();
    artifacts.interval_samples = series.size();
    artifacts.samples_dropped = series.dropped();
    for (std::size_t i = 0; i < series.size(); ++i) {
      artifacts.deadlocks_in_series += series.at(i).deadlocks;
    }
    artifacts.heatmap_ascii = telemetry_->heatmap().ascii_grid(
        *network_, SpatialHeatmap::Field::Traversals);
    artifacts.profile_table = telemetry_->profiler().table();
    if (!config_.telemetry.heatmap_csv_path.empty()) {
      std::ofstream csv(config_.telemetry.heatmap_csv_path, std::ios::trunc);
      if (!csv) {
        throw std::runtime_error("cannot open heatmap CSV file: " +
                                 config_.telemetry.heatmap_csv_path);
      }
      telemetry_->heatmap().write_csv(csv, *network_);
      artifacts.heatmap_csv_path = config_.telemetry.heatmap_csv_path;
    }
    if (!config_.telemetry.manifest_path.empty()) {
      std::ofstream manifest(config_.telemetry.manifest_path, std::ios::trunc);
      if (!manifest) {
        throw std::runtime_error("cannot open telemetry manifest file: " +
                                 config_.telemetry.manifest_path);
      }
      write_manifest_json(manifest, config_, result, *telemetry_, *network_,
                          obs_.get());
      artifacts.manifest_path = config_.telemetry.manifest_path;
    }
  }
  if (forensics_) {
    result.forensics = forensics_->reports();
    if (!config_.trace.forensics_dot_prefix.empty()) {
      for (const ForensicsReport& report : result.forensics) {
        const std::string path = config_.trace.forensics_dot_prefix +
                                 std::to_string(report.sequence) + ".dot";
        std::ofstream dot(path);
        if (!dot) {
          throw std::runtime_error("cannot open forensics DOT file: " + path);
        }
        dot << report.dot;
      }
    }
  }
  return result;
}

ExperimentResult run_experiment(const ExperimentConfig& config) {
  Simulation sim(config);
  return sim.run();
}

}  // namespace flexnet
