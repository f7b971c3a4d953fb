// DeadlockDetector: periodically snapshots the network's channel wait-for
// graph, finds knots (true deadlocks), characterizes each one (deadlock set,
// resource set, knot cycle density, dependent messages), optionally counts
// the total resource-dependency cycles in the CWG, and triggers recovery.
//
// This mirrors the paper's methodology: detection every 50 cycles, one
// deadlock-set message removed per detected knot, and residual knots picked
// up at the next invocation.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "core/cwg.hpp"
#include "core/knot.hpp"
#include "core/scc.hpp"
#include "sim/config.hpp"
#include "sim/message_class.hpp"
#include "util/rng.hpp"

namespace flexnet {

class BinReader;
class BinWriter;
class Network;
class DeadlockForensics;
class PhaseProfiler;
struct DeadlockRecord;

/// Observer invoked once per confirmed deadlock, after the record (including
/// the chosen victim) is filled but *before* the victim is removed — so the
/// knot is still intact in the network state. The snapshot corpus capture
/// implements this to dump a replayable image of the deadlocked network.
class KnotCaptureHook {
 public:
  virtual ~KnotCaptureHook() = default;
  virtual void on_knot(const Network& net, const Cwg& cwg, const Knot& knot,
                       const DeadlockRecord& record) = 0;
};

struct DetectorConfig {
  Cycle interval = 50;  ///< Cycles between detector invocations.

  RecoveryKind recovery = RecoveryKind::RemoveOldest;

  /// Only count a knot as a deadlock once every deadlock-set message is
  /// fully compacted (Network::message_immobile). An instantaneous knot with
  /// remaining buffer slack can still dissolve by tail compaction; requiring
  /// quiescence makes detection *true* rather than conservative. Knots that
  /// fail the test are tallied as transient_knots and re-examined at the
  /// next invocation.
  bool require_quiescence = true;

  /// Compute each knot's cycle density (off only for speed-critical sweeps).
  bool measure_knot_density = true;
  /// Enumeration cap for knot cycle density.
  std::int64_t knot_density_cap = 100000;

  /// Count the CWG's total elementary cycles (Figs. 6a/7b). Expensive at
  /// saturation, so it runs on every `cycle_sample_every`-th invocation with
  /// a hard cap; capped counts are lower bounds.
  bool count_total_cycles = false;
  int cycle_sample_every = 5;
  std::int64_t total_cycle_cap = 20000;

  /// Retain per-deadlock records (set/resource sizes etc.).
  bool keep_records = true;

  /// Livelock guard (0 = off): a message whose hop count reaches this limit
  /// is removed and delivered via recovery, like Disha's timeout criterion.
  /// Only relevant with misrouting/faults — minimal routing cannot livelock.
  int livelock_hop_limit = 0;

  /// Disables the incremental pipeline (arc-epoch gating, verdict reuse,
  /// Tarjan from the blocked tips only): every pass rebuilds the CWG and
  /// runs Tarjan from every VC. The two paths are bit-identical in verdicts,
  /// records, and hook firings; this one exists as the equivalence-test
  /// oracle and an escape hatch (--detector-full-rebuild).
  bool full_rebuild = false;
};

/// One detected deadlock's characterization (paper Section 2.2 metrics).
struct DeadlockRecord {
  Cycle detected_at = -1;
  int deadlock_set_size = 0;
  int resource_set_size = 0;
  int knot_size = 0;  ///< VCs in the knot itself.
  int dependent_count = 0;
  std::int64_t knot_cycle_density = -1;  ///< -1 when not measured.
  bool density_capped = false;
  MessageId victim = kInvalidMessage;

  [[nodiscard]] bool multi_cycle() const noexcept { return knot_cycle_density > 1; }
};

/// The detector's CWG-pressure reading, refreshed at every detection pass by
/// the incremental pipeline: how many VCs its Tarjan search from the blocked
/// tips reached, their largest SCC, and the knot count. `computed_at`
/// advances on every pass that (re)validates the reading — including
/// epoch-gated skips, where the unchanged arc epoch proves the stats still
/// describe the live CWG.
/// Process-local and never serialized (like all scratch state); a restored
/// detector reports valid=false until its first pass. The full-rebuild
/// oracle searches from every VC, so it leaves valid=false too.
struct PressureStats {
  Cycle computed_at = -1;
  std::int64_t closure_size = 0;  ///< VCs reachable from blocked tips.
  std::int64_t largest_scc = 0;   ///< Largest SCC among those VCs.
  std::int64_t knots = 0;         ///< Knots found by the pass.
  bool valid = false;
};

/// One total-cycle-count sample.
struct CycleSample {
  Cycle at = -1;
  std::int64_t cycles = 0;
  bool capped = false;
  int blocked_messages = 0;
  int in_network_messages = 0;
};

class DeadlockDetector {
 public:
  DeadlockDetector(const DetectorConfig& config, std::uint64_t seed);

  /// Call after every Network::step(); runs the detection algorithm when the
  /// configured interval elapses. Returns the number of knots found this
  /// cycle (0 on off-cycles).
  int tick(Network& net);

  /// Forces one detection pass immediately (used by tests/examples).
  int run_detection(Network& net);

  /// Attaches a forensics recorder (non-owning; nullptr detaches). Every
  /// confirmed deadlock is recorded — with the pre-recovery CWG and the
  /// chosen victim — before the victim is removed.
  void set_forensics(DeadlockForensics* forensics) noexcept {
    forensics_ = forensics;
  }
  [[nodiscard]] DeadlockForensics* forensics() const noexcept {
    return forensics_;
  }

  /// Attaches a knot-capture hook (non-owning; nullptr detaches). Called for
  /// every confirmed deadlock before recovery removes the victim.
  void set_capture(KnotCaptureHook* capture) noexcept { capture_ = capture; }
  [[nodiscard]] KnotCaptureHook* capture() const noexcept { return capture_; }

  /// Attaches a phase profiler (non-owning; nullptr detaches). Detection
  /// passes are recorded as SimPhase::Detector, victim/livelock removals as
  /// the nested SimPhase::Recovery.
  void set_profiler(PhaseProfiler* profiler) noexcept {
    profiler_ = profiler;
  }
  [[nodiscard]] PhaseProfiler* profiler() const noexcept { return profiler_; }

  [[nodiscard]] const std::vector<DeadlockRecord>& records() const noexcept {
    return records_;
  }
  [[nodiscard]] const std::vector<CycleSample>& cycle_samples() const noexcept {
    return cycle_samples_;
  }
  [[nodiscard]] std::int64_t total_deadlocks() const noexcept {
    return total_deadlocks_;
  }
  /// Knots seen before quiescence (not yet — possibly never — deadlocks).
  [[nodiscard]] std::int64_t transient_knots() const noexcept {
    return transient_knots_;
  }
  /// Messages removed by the livelock guard.
  [[nodiscard]] std::int64_t livelocks() const noexcept { return livelocks_; }
  [[nodiscard]] std::int64_t invocations() const noexcept { return invocations_; }
  /// Passes that skipped the CWG rebuild + SCC because the arc epoch proved
  /// the graph unchanged (or no message was blocked). Always counted inside
  /// invocations(); 0 when full_rebuild is set.
  [[nodiscard]] std::int64_t skipped_passes() const noexcept {
    return skipped_passes_;
  }

  /// CWG pressure as of the most recent detection pass (see PressureStats).
  [[nodiscard]] const PressureStats& pressure() const noexcept {
    return pressure_;
  }

  /// Per-class deadlock participation: how many confirmed deadlock-set
  /// members carried each MessageClass, accumulated across every confirmed
  /// knot since the last reset_statistics(). The workload question "which
  /// traffic classes end up inside the knots?" reads straight off this.
  [[nodiscard]] const std::array<std::int64_t, kNumMessageClasses>&
  class_participation() const noexcept {
    return class_participation_;
  }

  /// Drops accumulated records/samples (e.g. at the end of warmup) while
  /// keeping detector state.
  void reset_statistics();

  /// Snapshot hooks: RNG position, tallies, and the retained record/sample
  /// vectors (so a resumed run reports identical detector statistics).
  /// Pre-v3 payloads carry no class-participation array (restores zeroed).
  void save_state(BinWriter& out) const;
  void restore_state(BinReader& in,
                     std::uint32_t version = kStateFormatVersion);

 private:
  /// Quiescence-checks, characterizes, records, and recovers every knot in
  /// cached_knots_ against the given CWG. Returns the confirmed count.
  int process_knots(Network& net, const Cwg& cwg);

  DetectorConfig config_;
  Pcg32 rng_;
  DeadlockForensics* forensics_ = nullptr;
  PhaseProfiler* profiler_ = nullptr;
  KnotCaptureHook* capture_ = nullptr;
  std::vector<DeadlockRecord> records_;
  std::vector<CycleSample> cycle_samples_;
  std::int64_t total_deadlocks_ = 0;
  std::int64_t transient_knots_ = 0;
  std::int64_t livelocks_ = 0;
  std::int64_t invocations_ = 0;
  std::array<std::int64_t, kNumMessageClasses> class_participation_{};

  // --- incremental pipeline state (never serialized: save_state/restore_state
  // deliberately exclude everything below so snapshots stay format-stable and
  // path-independent; restore_state just invalidates the cache) --------------
  Cwg cwg_;  ///< Rebuilt in place every non-skipped pass.
  std::vector<int> tips_;  ///< Tarjan's roots: each blocked message's tip.
  SccResult scc_;
  SccScratch scc_scratch_;
  std::vector<MessageId> livelock_scratch_;
  std::int64_t skipped_passes_ = 0;
  PressureStats pressure_;
  /// Knots found by the most recent rebuild, reusable while the arc epoch
  /// stands still. Density is measured lazily once per cached knot — the
  /// graph (hence the count) cannot change within an epoch.
  std::vector<Knot> cached_knots_;
  struct CachedDensity {
    bool measured = false;
    std::int64_t count = 0;
    bool capped = false;
  };
  std::vector<CachedDensity> cached_density_;
  const Network* cached_net_ = nullptr;
  std::uint64_t cached_epoch_ = 0;
  bool cache_valid_ = false;
};

}  // namespace flexnet
