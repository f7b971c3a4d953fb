// Live observability: a streaming, allocation-free metrics layer that
// watches a run *approach* deadlock instead of characterizing it after the
// knot has closed.
//
// Sampled every `--metrics-interval` cycles, an ObsCollector tracks
//
//  * stall age — how long each blocked header has been waiting, with a
//    run-scoped high-watermark per VC and per channel and a log-bucketed age
//    histogram (every sampling instant contributes every blocked header's
//    current age, i.e. a time-integrated age distribution at the sampling
//    resolution);
//  * CWG pressure — solid/dashed arc counts recomputed from message state,
//    the largest blocked component (union-find over the VCs that blocked
//    messages hold or request), and the blocked-closure / largest-SCC stats
//    the incremental detector's scratch recorded at its most recent pass;
//  * a composite precursor score — stall age normalized by `stall_ref`,
//    amplified by arc/component pressure, and scaled by the structural
//    verdict of the detector's last valid pass (a blocked SCC doubles the
//    evidence; an acyclic blocked structure quarters it, which keeps
//    saturated deadlock-free runs silent) — with a `--warn-threshold` that
//    fires a DeadlockWarning trace event strictly before the detector
//    confirms a knot;
//  * end-to-end latency percentiles (p50/p99/p999) from a log-bucketed
//    histogram fed by a null-guarded delivery hook in the network — no
//    samples are stored;
//  * an activity census: how many routers, VCs and sources are actually
//    doing work at the sampling instant (the measurement baseline for the
//    event-driven-core roadmap item).
//
// Every sample is appended to a deterministic `flexnet-metrics-v1` NDJSON
// stream (one compact JSON record per line, flushed per record so
// `metrics_tail --follow` can watch a live run), and a cumulative summary is
// folded into the telemetry manifest. The collector's cumulative state is
// serialized into snapshot section 10, so a resumed run continues the stream
// bit-exactly. Disabled cost inside the simulator: one null-pointer branch
// at the delivery hook, nothing else.
#pragma once

#include <array>
#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "core/detector.hpp"
#include "obs/histogram.hpp"
#include "sim/message_class.hpp"
#include "sim/network.hpp"
#include "sim/types.hpp"

namespace flexnet {

class JsonWriter;

inline constexpr std::string_view kMetricsSchema = "flexnet-metrics-v1";

struct ObsConfig {
  /// Master switch; a metrics path also enables collection.
  bool collect = false;
  /// Append the flexnet-metrics-v1 NDJSON stream here (--metrics).
  std::string metrics_path;
  /// Sampling stride in cycles (--metrics-interval).
  Cycle interval = 100;
  /// Precursor score at or above which a DeadlockWarning fires
  /// (--warn-threshold).
  double warn_threshold = 1.0;
  /// Stall-age normalization for the score's dominant term
  /// (--warn-stall-ref); roughly "a header this old is alarming".
  Cycle stall_ref = 400;

  [[nodiscard]] bool enabled() const noexcept {
    return collect || !metrics_path.empty();
  }

  /// Per-point file names for sweeps: "m.ndjson" -> "m.ndjson.p<i>", same
  /// convention as TelemetryConfig so parallel points never share a stream.
  [[nodiscard]] ObsConfig with_point_suffix(std::size_t point) const;
};

/// One interval record — exactly the fields of one NDJSON line.
struct ObsSample {
  Cycle cycle = -1;

  // Flow over the interval + cumulative latency percentiles.
  std::int64_t delivered = 0;
  std::int64_t recovered = 0;
  double latency_p50 = 0.0;
  double latency_p99 = 0.0;
  double latency_p999 = 0.0;
  std::int64_t latency_max = 0;

  // Stall ages at the sampling instant.
  std::int32_t blocked = 0;
  std::int64_t max_stall_age = 0;
  std::int64_t stall_hwm = 0;  ///< Run-scoped high-watermark.
  double stall_p99 = 0.0;      ///< Cumulative blocked-age histogram.

  // CWG pressure.
  std::int64_t ownership_arcs = 0;
  std::int64_t request_arcs = 0;
  std::int64_t arc_growth = 0;  ///< request_arcs minus previous sample's.
  std::int64_t largest_component = 0;  ///< VCs in the largest blocked component.
  std::int64_t det_closure = 0;     ///< Detector's blocked-closure size.
  std::int64_t det_largest_scc = 0; ///< Detector's largest blocked SCC.
  std::int64_t det_knots = 0;
  Cycle det_cycle = -1;  ///< Pass the detector stats are current as of.
  bool det_valid = false;

  // Precursor score.
  double score = 0.0;
  bool warning = false;  ///< True on the rising-edge sample that fired.

  // Activity census.
  std::int32_t active_routers = 0;
  std::int32_t idle_routers = 0;
  std::int32_t active_vcs = 0;
  std::int32_t active_sources = 0;
  std::int64_t in_network = 0;
  std::int64_t queued = 0;

  /// Deliveries over the interval broken down by message class (index =
  /// class_index; sums to `delivered`). All-Bulk until a workload tags
  /// classes, so pre-workload streams stay byte-meaningful.
  std::array<std::int64_t, kNumMessageClasses> class_delivered{};
};

/// What an obs-enabled run leaves behind in its ExperimentResult.
struct ObsArtifacts {
  bool enabled = false;
  std::string metrics_path;  ///< Empty when no stream was written.
  std::uint64_t samples = 0;
  double peak_score = 0.0;
  std::int64_t warnings = 0;  ///< Rising-edge warning count.
  Cycle first_warning_cycle = -1;
  Cycle first_confirmation_cycle = -1;
  /// first_confirmation - first_warning; -1 unless both occurred.
  Cycle lead_cycles = -1;
};

class ObsCollector {
 public:
  /// `config.interval` < 1 throws; opens the NDJSON stream (if any) and
  /// writes its header record. The network fixes the counter shapes.
  ObsCollector(const ObsConfig& config, const Network& net);

  /// Contributes the delivery hook to the network observer surface being
  /// assembled. Non-owning; this collector must outlive the network's use of
  /// it (Simulation guarantees it).
  void contribute_hooks(NetworkHooks& hooks) noexcept { hooks.obs = this; }

  /// Per-cycle driver hook (call after the detector tick, so pressure stats
  /// are current); samples whenever the configured interval elapses.
  void tick(const Network& net, const DeadlockDetector& detector) {
    if (net.now() < next_sample_) return;
    sample_now(net, detector);
  }

  /// Forces a sample at the current cycle regardless of cadence — the same
  /// path tick() takes when the interval elapses (bench/test hook; finalize
  /// uses it for the residual partial interval).
  void sample(const Network& net, const DeadlockDetector& detector) {
    sample_now(net, detector);
  }

  /// Forces a final sample covering any residual partial interval, records
  /// the first knot-confirmation cycle, and appends the summary record
  /// ("final": true) to the stream.
  void finalize(const Network& net, const DeadlockDetector& detector);

  // --- hot-path hook (call site in Network is null-guarded) ----------------
  void on_delivery(Cycle latency, MessageClass cls) noexcept {
    latency_hist_.record(latency);
    class_latency_hist_[class_index(cls)].record(latency);
  }

  // --- observers -----------------------------------------------------------
  [[nodiscard]] const ObsConfig& config() const noexcept { return config_; }
  [[nodiscard]] const ObsSample& last_sample() const noexcept { return last_; }
  [[nodiscard]] std::uint64_t samples_recorded() const noexcept {
    return samples_recorded_;
  }
  [[nodiscard]] double peak_score() const noexcept { return peak_score_; }
  [[nodiscard]] std::int64_t warnings() const noexcept { return warning_count_; }
  [[nodiscard]] Cycle first_warning_cycle() const noexcept {
    return first_warning_cycle_;
  }
  /// First DeadlockRecord cycle seen by finalize(); -1 before finalize or
  /// when the run confirmed no knot.
  [[nodiscard]] Cycle first_confirmation_cycle() const noexcept {
    return first_confirmation_cycle_;
  }
  [[nodiscard]] Cycle lead_cycles() const noexcept {
    return (first_warning_cycle_ >= 0 && first_confirmation_cycle_ >= 0)
               ? first_confirmation_cycle_ - first_warning_cycle_
               : -1;
  }
  [[nodiscard]] std::int64_t vc_stall_hwm(VcId vc) const {
    return vc_stall_hwm_.at(static_cast<std::size_t>(vc));
  }
  [[nodiscard]] std::int64_t channel_stall_hwm(ChannelId ch) const {
    return channel_stall_hwm_.at(static_cast<std::size_t>(ch));
  }

  /// Fills the summary the manifest and ExperimentResult carry.
  [[nodiscard]] ObsArtifacts artifacts() const;

  /// Writes the cumulative summary fields (the "final" record's body) into
  /// an already-open JSON object — shared by the NDJSON summary record and
  /// the manifest's "metrics" block.
  void write_summary_fields(JsonWriter& json, const Network& net) const;

  /// Snapshot codec (section 10): every cumulative histogram, watermark,
  /// latch and cadence cursor, so a resumed run's stream continues
  /// bit-exactly where the checkpoint left off. Pre-v3 payloads carry no
  /// per-class histograms/cursors (restored empty/zeroed).
  void save_state(BinWriter& out) const;
  void restore_state(BinReader& in,
                     std::uint32_t version = kStateFormatVersion);

 private:
  void sample_now(const Network& net, const DeadlockDetector& detector);
  void emit_record(const ObsSample& s);
  [[nodiscard]] VcId dsu_find(VcId v) noexcept;
  void dsu_union(VcId a, VcId b) noexcept;

  ObsConfig config_;
  std::ofstream out_;
  bool stream_open_ = false;

  // Cumulative state (serialized).
  LogHistogram latency_hist_;
  std::array<LogHistogram, kNumMessageClasses> class_latency_hist_;
  std::array<std::int64_t, kNumMessageClasses> prev_class_delivered_{};
  LogHistogram stall_hist_;
  std::vector<std::int64_t> vc_stall_hwm_;
  std::vector<std::int64_t> channel_stall_hwm_;
  std::int64_t stall_hwm_ = 0;
  double peak_score_ = 0.0;
  bool warn_active_ = false;
  std::int64_t warning_count_ = 0;
  Cycle first_warning_cycle_ = -1;
  std::int64_t prev_delivered_ = 0;
  std::int64_t prev_recovered_ = 0;
  std::int64_t prev_request_arcs_ = 0;
  std::uint64_t samples_recorded_ = 0;
  Cycle next_sample_ = 0;
  PressureStats last_pressure_;  ///< Detector reading carried across resume.

  // Derived / per-run state (not serialized).
  Cycle first_confirmation_cycle_ = -1;
  ObsSample last_;
  bool finalized_ = false;

  // Census + component scratch, sized once from the network shape and reset
  // per sample with generation marks (no per-sample allocation or O(n) clear
  // beyond the touched entries).
  std::vector<VcId> dsu_parent_;
  std::vector<std::uint64_t> dsu_gen_;
  std::vector<std::int64_t> comp_count_;
  std::vector<std::uint64_t> comp_gen_;
  std::vector<std::uint64_t> node_gen_;
  std::vector<VcId> involved_;
  std::uint64_t gen_ = 0;
};

}  // namespace flexnet
