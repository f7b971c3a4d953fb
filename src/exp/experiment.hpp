// Experiment driver: wires topology, routing, injection, detector and
// metrics together and runs the paper's methodology — warm up to (approach)
// steady state, then measure for a fixed window with detection every
// `detector.interval` cycles.
#pragma once

#include <fstream>
#include <memory>
#include <string>

#include "core/detector.hpp"
#include "metrics/metrics.hpp"
#include "obs/obs.hpp"
#include "sim/network.hpp"
#include "snapshot/corpus.hpp"
#include "snapshot/snapshot.hpp"
#include "telemetry/telemetry.hpp"
#include "trace/forensics.hpp"
#include "trace/sinks.hpp"
#include "traffic/injection.hpp"
#include "workload/trace_file.hpp"
#include "workload/workload.hpp"

namespace flexnet {

struct RunConfig {
  Cycle warmup = 10000;   ///< Cycles before measurement starts.
  Cycle measure = 30000;  ///< Measured cycles (paper: 30,000 beyond steady state).
  int sample_every = 1;   ///< Congestion sampling stride.
  bool check_invariants = false;  ///< Periodic full invariant validation.
  Cycle check_every = 997;
  /// Run the dense per-cycle sweep instead of the event-driven active-set
  /// core (--step-dense). An execution-strategy choice, not simulation
  /// state: both paths produce byte-identical results, so it is never
  /// serialized and a resumed run honors the resuming command line.
  bool step_dense = false;
  /// Sharded parallel stepping (--shards): 0 = one shard stepped inline,
  /// -1 = auto (min(worker_thread_count(), nodes); worker_thread_count
  /// honors FLEXNET_THREADS), N >= 1 = exactly N shards. Like step_dense
  /// this is an execution strategy, never serialized: a resumed run honors
  /// the resuming command line, and every shard count produces
  /// byte-identical results (Network::set_shards).
  int shards = 0;
};

/// Tracing/forensics attachment for a simulation. Everything is off by
/// default; Simulation materializes the tracer, sinks and forensics recorder
/// from this and owns them for the run.
struct TraceConfig {
  /// Ring sink capacity in events; 0 disables the ring (unless forensics
  /// forces a default-sized one).
  std::size_t ring_capacity = 0;
  /// Write a Chrome trace-event JSON (chrome://tracing / Perfetto) here.
  std::string chrome_path;
  /// Write the deterministic binary encoding here.
  std::string binary_path;
  /// Record per-deadlock forensics (implies a ring sink; if ring_capacity is
  /// 0, kDefaultRingCapacity is used).
  bool forensics = false;
  /// When set, each forensics report's CWG snapshot is written to
  /// "<prefix><seq>.dot" at the end of the run.
  std::string forensics_dot_prefix;

  static constexpr std::size_t kDefaultRingCapacity = 1 << 16;

  [[nodiscard]] bool enabled() const noexcept {
    return ring_capacity > 0 || !chrome_path.empty() || !binary_path.empty() ||
           forensics;
  }

  /// Per-point file names for sweeps: "out.json" -> "out.json.p<i>" so
  /// parallel points never clobber each other.
  [[nodiscard]] TraceConfig with_point_suffix(std::size_t point) const;
};

/// Checkpoint / resume / deadlock-capture attachment. Everything off by
/// default; Simulation materializes the corpus hook and checkpoint writer.
struct SnapshotConfig {
  /// Write a checkpoint every C cycles (0 disables).
  Cycle checkpoint_every = 0;
  /// Directory for periodic checkpoints (created on demand).
  std::string checkpoint_dir = "checkpoints";
  /// Resume from this snapshot file. The snapshot's sim/traffic/detector
  /// configs and run schedule override the corresponding fields here.
  std::string resume_path;
  /// Capture a snapshot at each knot confirmation into this directory
  /// (empty disables), deduplicated by canonical knot hash.
  std::string capture_dir;
  /// Max captures per run (<= 0 = unlimited).
  int capture_limit = 16;

  [[nodiscard]] bool enabled() const noexcept {
    return checkpoint_every > 0 || !resume_path.empty() ||
           !capture_dir.empty();
  }

  /// Per-point directories for sweeps: "corpus" -> "corpus.p<i>" so parallel
  /// points never clobber each other's files. resume_path is left alone
  /// (resuming is a single-run operation).
  [[nodiscard]] SnapshotConfig with_point_suffix(std::size_t point) const;
};

struct ExperimentConfig {
  SimConfig sim;
  TrafficConfig traffic;
  /// Arrival process (--workload) + optional capture tap (--capture-trace).
  /// A trace workload's header overrides `traffic` at construction.
  WorkloadConfig workload;
  DetectorConfig detector;
  RunConfig run;
  TraceConfig trace;
  TelemetryConfig telemetry;
  ObsConfig obs;
  SnapshotConfig snapshot;
  /// Count recovery-delivered messages in the normalized-deadlock
  /// denominator (Disha delivers its victims).
  bool count_recovered_as_delivered = true;
};

struct ExperimentResult {
  double load = 0.0;
  double capacity_flits_per_node = 0.0;
  double offered_flit_rate = 0.0;
  double avg_distance = 0.0;
  WindowMetrics window;

  /// Accepted throughput normalized to channel capacity.
  double normalized_throughput = 0.0;
  /// Accepted / offered; < ~0.95 marks saturation.
  double accepted_ratio = 0.0;
  bool saturated = false;

  /// Forensics reports recorded during measurement (empty unless
  /// TraceConfig::forensics was set).
  std::vector<ForensicsReport> forensics;

  /// Telemetry summaries and output paths (all-default unless
  /// TelemetryConfig::enabled() was set).
  TelemetryArtifacts telemetry;

  /// Observability summary — precursor warnings, lead time, stream path
  /// (all-default unless ObsConfig::enabled() was set).
  ObsArtifacts obs;

  /// Resume lineage (recorded in the telemetry manifest): the snapshot file
  /// this run was resumed from and its cycle, or empty/-1 for fresh runs.
  std::string resumed_from;
  Cycle resumed_at_cycle = -1;

  /// Deadlock-corpus capture summary (zeros unless capture_dir was set).
  int deadlocks_captured = 0;
  int capture_duplicates = 0;
  int capture_dropped = 0;

  /// Detection-cost accounting (recorded in the telemetry manifest):
  /// total detector passes and how many the incremental pipeline satisfied
  /// without a CWG rebuild (arc epoch unchanged or nothing blocked).
  std::int64_t detector_invocations = 0;
  std::int64_t detector_skipped_passes = 0;
};

/// A constructed, steppable simulation (examples drive this directly; the
/// one-shot helper below wraps it).
class Simulation {
 public:
  explicit Simulation(const ExperimentConfig& config);

  /// Advances injection + network + detector by `cycles`.
  void run_cycles(Cycle cycles);

  [[nodiscard]] Network& network() noexcept { return *network_; }
  [[nodiscard]] const Network& network() const noexcept { return *network_; }
  [[nodiscard]] DeadlockDetector& detector() noexcept { return *detector_; }
  [[nodiscard]] InjectionProcess& injection() noexcept { return *injection_; }
  [[nodiscard]] const ExperimentConfig& config() const noexcept { return config_; }

  /// Non-null iff TraceConfig enabled the corresponding component.
  [[nodiscard]] Tracer* tracer() noexcept { return tracer_.get(); }
  [[nodiscard]] DeadlockForensics* forensics() noexcept {
    return forensics_.get();
  }
  /// Non-null iff TelemetryConfig::enabled().
  [[nodiscard]] Telemetry* telemetry() noexcept { return telemetry_.get(); }
  /// Non-null iff ObsConfig::enabled().
  [[nodiscard]] ObsCollector* obs() noexcept { return obs_.get(); }

  /// Flushes every attached sink (also done by run() and the destructor).
  void flush_trace();

  /// Captures the live state as a Checkpoint snapshot.
  [[nodiscard]] Snapshot make_checkpoint() const;
  /// Captures and writes a checkpoint to `path` (parents created on demand).
  void save_snapshot(const std::string& path) const;

  /// True when this simulation was restored from SnapshotConfig::resume_path.
  [[nodiscard]] bool resumed() const noexcept { return resumed_; }
  /// Non-null iff SnapshotConfig::capture_dir was set.
  [[nodiscard]] const DeadlockCorpus* corpus() const noexcept {
    return corpus_.get();
  }

  /// Runs warmup + measurement and returns the result. On a resumed
  /// simulation this completes the original schedule: it picks up at the
  /// checkpoint cycle — mid-warmup or mid-measurement — and produces the
  /// same window metrics the uninterrupted run would have.
  [[nodiscard]] ExperimentResult run();

 private:
  void write_checkpoint();
  void sync_corpus_run_state() noexcept;

  ExperimentConfig config_;
  std::unique_ptr<Network> network_;
  std::unique_ptr<InjectionProcess> injection_;
  std::unique_ptr<DeadlockDetector> detector_;
  MetricsCollector metrics_;
  bool measuring_ = false;
  bool resumed_ = false;
  bool resumed_measuring_ = false;
  Cycle resumed_at_cycle_ = -1;
  std::unique_ptr<DeadlockCorpus> corpus_;

  // Trace attachment, owned for the simulation's lifetime. Streams are
  // declared before the sinks writing into them (destruction is reversed).
  std::ofstream chrome_out_;
  std::ofstream binary_out_;
  std::unique_ptr<RingBufferSink> ring_;
  std::unique_ptr<ChromeTraceSink> chrome_sink_;
  std::unique_ptr<BinaryTraceSink> binary_sink_;
  std::unique_ptr<Tracer> tracer_;
  std::unique_ptr<DeadlockForensics> forensics_;
  std::unique_ptr<Telemetry> telemetry_;
  std::unique_ptr<ObsCollector> obs_;

  // Workload capture tap (--capture-trace): stream before writer.
  std::ofstream capture_out_;
  std::unique_ptr<TraceCaptureWriter> capture_writer_;
};

/// One-shot: build, warm up, measure, summarize.
[[nodiscard]] ExperimentResult run_experiment(const ExperimentConfig& config);

}  // namespace flexnet
