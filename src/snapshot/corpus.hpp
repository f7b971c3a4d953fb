// Deadlock corpus: capture every confirmed knot as a replayable snapshot.
//
// DeadlockCorpus hooks DeadlockDetector (KnotCaptureHook): at the moment a
// knot is confirmed — record filled, victim chosen, nothing removed yet — it
// dumps a full flexnet-snap-v1 image of the simulation with the knot's
// characterization (set sizes, cycle density, canonical hash) in the meta
// section. Captures are deduplicated by canonical_knot_hash together with
// the deadlock-set, resource-set and knot sizes, so a saturated run that
// forms the same translated wait-for pattern hundreds of times contributes
// one corpus entry, while structurally different knots that share a hash
// (refinement cannot always separate them) each get one. Captures are capped
// to bound disk use.
//
// replay_capture() is the other half: restore the image, rebuild the CWG,
// re-run knot detection and cycle-density enumeration, and check the fresh
// verdict against the recorded metadata. A corpus therefore doubles as a
// regression suite for the detector: any change that alters knot finding,
// quiescence filtering or characterization trips a replay mismatch.
#pragma once

#include <cstdint>
#include <set>
#include <string>
#include <tuple>
#include <unordered_map>

#include "core/detector.hpp"
#include "snapshot/snapshot.hpp"

namespace flexnet {

class DeadlockCorpus final : public KnotCaptureHook {
 public:
  /// Snapshots are written to `dir` (created on first capture) as
  /// `knot-<cycle>-<hash>.snap`; a hash twin captured in the same cycle as
  /// an earlier one is named `knot-<cycle>-<hash>-<D>-<R>-<K>.snap` after
  /// its deadlock-set, resource-set and knot sizes. At most `limit` files
  /// are written (<=0 disables the cap). The component pointers are
  /// non-owning and must stay valid while the corpus is attached.
  DeadlockCorpus(std::string dir, int limit, const SimConfig& sim,
                 const TrafficConfig& traffic, const WorkloadConfig& workload,
                 const DetectorConfig& detector,
                 const InjectionProcess* injection,
                 const DeadlockDetector* det, const MetricsCollector* metrics);

  void on_knot(const Network& net, const Cwg& cwg, const Knot& knot,
               const DeadlockRecord& record) override;

  /// Lets the owner keep meta.measuring / the run schedule current.
  void set_run_state(Cycle warmup, Cycle measure, std::int32_t sample_every,
                     bool measuring) noexcept {
    warmup_ = warmup;
    measure_ = measure;
    sample_every_ = sample_every;
    measuring_ = measuring;
  }

  [[nodiscard]] int captured() const noexcept { return captured_; }
  /// Knots skipped because a knot with the same canonical hash and the
  /// same set and knot sizes was already captured.
  [[nodiscard]] int duplicates() const noexcept { return duplicates_; }
  /// Knots skipped because the capture cap was reached.
  [[nodiscard]] int dropped() const noexcept { return dropped_; }

 private:
  std::string dir_;
  int limit_;
  SimConfig sim_;
  TrafficConfig traffic_;
  WorkloadConfig workload_;
  DetectorConfig detector_config_;
  const InjectionProcess* injection_;
  const DeadlockDetector* detector_;
  const MetricsCollector* metrics_;
  Cycle warmup_ = 0;
  Cycle measure_ = 0;
  std::int32_t sample_every_ = 1;
  bool measuring_ = false;
  /// Captured (hash, deadlock-set size, resource-set size, knot size).
  std::set<std::tuple<std::uint64_t, int, int, int>> seen_;
  /// Hash -> cycle of its latest capture, to give same-cycle twins
  /// distinct file names.
  std::unordered_map<std::uint64_t, Cycle> named_at_;
  int captured_ = 0;
  int duplicates_ = 0;
  int dropped_ = 0;
};

/// Outcome of replaying one captured deadlock.
struct ReplayResult {
  bool knot_found = false;  ///< Detection found at least one knot.
  bool matches = false;     ///< Some knot reproduces the recorded verdict.
  // The best-matching knot's fresh characterization (valid when knot_found).
  int deadlock_set_size = 0;
  int resource_set_size = 0;
  int knot_size = 0;
  std::uint64_t cwg_hash = 0;
  /// Re-enumerated under the snapshot's detector.knot_density_cap; -1 when
  /// the capture recorded no density.
  std::int64_t knot_cycle_density = -1;
  std::string detail;  ///< Human-readable mismatch description (empty on match).
};

/// Restores a DeadlockCapture snapshot and re-runs knot detection on the
/// restored network, comparing against the snapshot's recorded verdict:
/// sizes, canonical hash and, when recorded, the knot cycle density.
/// Throws std::runtime_error if the snapshot is not a DeadlockCapture.
[[nodiscard]] ReplayResult replay_capture(const Snapshot& snap);

}  // namespace flexnet
