// Deadlock forensics: on every confirmed knot, reconstruct how the deadlock
// *formed* — not just what it looks like — from the always-on trace ring:
// when each deadlock-set message last made forward progress, the order in
// which their blocked episodes closed the knot's request arcs, the event
// timeline leading up to detection, and a DOT snapshot of the CWG. Successive
// reports form the paper-style "formation sequence" of a run.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/cwg.hpp"
#include "core/knot.hpp"
#include "sim/message_class.hpp"
#include "trace/sinks.hpp"

namespace flexnet {

class Network;

/// One deadlock-set member's forensic record.
struct ForensicsMember {
  MessageId id = kInvalidMessage;
  NodeId src = kInvalidNode;
  NodeId dst = kInvalidNode;
  std::int32_t length = 0;
  MessageClass cls = MessageClass::Bulk;
  std::int32_t hops = 0;
  Cycle blocked_since = -1;    ///< Start of the blocked episode that closed its arc.
  Cycle last_progress = -1;    ///< Newest progress event in the ring; -1 = beyond horizon.
  std::vector<VcId> held;
  std::vector<VcId> requests;
};

struct ForensicsReport {
  std::int64_t sequence = 0;  ///< 0-based index of this deadlock in the run.
  Cycle detected_at = -1;
  int knot_size = 0;
  std::int64_t knot_cycle_density = -1;  ///< Copied from the detector; -1 unmeasured.
  /// Deadlock set ordered by blocked_since — the order the request arcs
  /// closed the knot (ties broken by message id).
  std::vector<ForensicsMember> members;
  std::vector<MessageId> dependents;
  MessageId victim = kInvalidMessage;
  /// Ring events touching the deadlock set, oldest first (bounded).
  std::vector<TraceEvent> timeline;
  bool timeline_truncated = false;
  /// Graphviz snapshot of the CWG at detection, knot highlighted.
  std::string dot;
};

class DeadlockForensics {
 public:
  /// Reports retained; the oldest is dropped past this.
  static constexpr std::size_t kMaxReports = 64;
  /// Newest ring events kept in one report's timeline.
  static constexpr std::size_t kTimelineLimit = 256;

  /// `ring` supplies formation history; may be nullptr (reports then carry
  /// structure but no timeline / last-progress data). Non-owning.
  explicit DeadlockForensics(const RingBufferSink* ring = nullptr)
      : ring_(ring) {}

  /// Records one confirmed deadlock. Call with the CWG the knot was found in,
  /// before recovery removes the victim.
  const ForensicsReport& on_deadlock(const Network& net, const Cwg& cwg,
                                     const Knot& knot, MessageId victim,
                                     std::int64_t knot_cycle_density = -1);

  [[nodiscard]] const std::vector<ForensicsReport>& reports() const noexcept {
    return reports_;
  }

  void clear() noexcept {
    reports_.clear();
    total_ = 0;
  }

 private:
  const RingBufferSink* ring_ = nullptr;
  std::vector<ForensicsReport> reports_;
  std::int64_t total_ = 0;
};

/// Human-readable rendering of a report (the deadlock_anatomy / sweep_cli
/// "formation timeline" block). `net` adds topology coordinates when given.
[[nodiscard]] std::string format_forensics_report(const ForensicsReport& report,
                                                  const Network* net = nullptr);

}  // namespace flexnet
