#include "trace/forensics.hpp"

#include <algorithm>
#include <array>
#include <sstream>
#include <unordered_set>

#include "core/dot.hpp"
#include "sim/network.hpp"
#include "topo/torus.hpp"

namespace flexnet {

const ForensicsReport& DeadlockForensics::on_deadlock(
    const Network& net, const Cwg& cwg, const Knot& knot, MessageId victim,
    std::int64_t knot_cycle_density) {
  ForensicsReport report;
  report.sequence = total_++;
  report.detected_at = net.now();
  report.knot_size = static_cast<int>(knot.knot_vcs.size());
  report.knot_cycle_density = knot_cycle_density;
  report.dependents = knot.dependent_messages;
  report.victim = victim;

  report.members.reserve(knot.deadlock_set.size());
  for (const MessageId id : knot.deadlock_set) {
    const Message& msg = net.message(id);
    ForensicsMember member;
    member.id = id;
    member.src = msg.src;
    member.dst = msg.dst;
    member.length = msg.length;
    member.cls = msg.cls;
    member.hops = msg.hops;
    member.blocked_since = msg.blocked_since;
    member.last_progress = ring_ != nullptr ? ring_->last_progress_cycle(id) : -1;
    member.held = msg.held;
    member.requests = msg.request_set;
    report.members.push_back(std::move(member));
  }
  // Arc-closure order: the knot closed as each member entered its final
  // blocked episode.
  std::sort(report.members.begin(), report.members.end(),
            [](const ForensicsMember& a, const ForensicsMember& b) {
              if (a.blocked_since != b.blocked_since) {
                return a.blocked_since < b.blocked_since;
              }
              return a.id < b.id;
            });

  if (ring_ != nullptr) {
    std::unordered_set<MessageId> members(knot.deadlock_set.begin(),
                                          knot.deadlock_set.end());
    std::vector<TraceEvent> timeline;
    for (const TraceEvent& event : ring_->snapshot()) {
      if (members.count(event.message) != 0) timeline.push_back(event);
    }
    if (timeline.size() > kTimelineLimit) {
      report.timeline_truncated = true;
      timeline.erase(timeline.begin(),
                     timeline.end() - static_cast<std::ptrdiff_t>(kTimelineLimit));
    }
    report.timeline = std::move(timeline);
  }

  report.dot = cwg_to_dot(cwg, std::span<const Knot>(&knot, 1));

  reports_.push_back(std::move(report));
  if (reports_.size() > kMaxReports) reports_.erase(reports_.begin());
  return reports_.back();
}

namespace {

std::string node_label(const Network* net, NodeId node) {
  std::ostringstream out;
  const KAryNCube* torus =
      net == nullptr ? nullptr : net->topology().as_torus();
  if (torus == nullptr || node == kInvalidNode) {
    out << 'n' << node;  // non-grid topologies have no coordinates
    return out.str();
  }
  const Coordinates& coords = torus->coordinates();
  out << '(';
  for (int d = 0; d < coords.dimensions(); ++d) {
    if (d > 0) out << ',';
    out << coords.coordinate(node, d);
  }
  out << ')';
  return out.str();
}

void append_vc_list(std::ostringstream& out, const std::vector<VcId>& vcs) {
  out << '[';
  for (std::size_t i = 0; i < vcs.size(); ++i) {
    if (i > 0) out << ' ';
    out << "vc" << vcs[i];
  }
  out << ']';
}

}  // namespace

std::string format_forensics_report(const ForensicsReport& report,
                                    const Network* net) {
  std::ostringstream out;
  out << "=== deadlock #" << report.sequence << " at cycle "
      << report.detected_at << " — formation forensics ===\n";
  out << "knot: " << report.knot_size << " VCs, deadlock set: "
      << report.members.size() << " messages, dependents: "
      << report.dependents.size();
  if (report.knot_cycle_density >= 0) {
    out << ", cycle density: " << report.knot_cycle_density;
  }
  out << '\n';

  std::array<int, kNumMessageClasses> by_class{};
  for (const ForensicsMember& m : report.members) {
    ++by_class[class_index(m.cls)];
  }
  out << "deadlock set by class:";
  for (const MessageClass cls : all_message_classes()) {
    if (by_class[class_index(cls)] == 0) continue;
    out << ' ' << to_string(cls) << '=' << by_class[class_index(cls)];
  }
  out << '\n';

  out << "\nknot closure order (blocked_since ascending; the last line is the "
         "arc that closed the knot):\n";
  for (const ForensicsMember& m : report.members) {
    out << "  m" << m.id << ' ' << node_label(net, m.src) << "->"
        << node_label(net, m.dst) << " len " << m.length << ' '
        << to_string(m.cls) << ", " << m.hops << " hops"
        << " | blocked since " << m.blocked_since << " | last progress ";
    if (m.last_progress >= 0) {
      out << "cycle " << m.last_progress;
    } else {
      out << "beyond trace horizon";
    }
    out << "\n      holds ";
    append_vc_list(out, m.held);
    out << " -> requests ";
    append_vc_list(out, m.requests);
    out << '\n';
  }

  if (report.victim != kInvalidMessage) {
    out << "\nvictim: m" << report.victim << " (removed for recovery)\n";
  }

  if (!report.timeline.empty()) {
    out << "\nformation timeline (" << report.timeline.size()
        << " deadlock-set events" << (report.timeline_truncated ? ", head truncated" : "")
        << "):\n";
    for (const TraceEvent& e : report.timeline) {
      out << "  @" << e.cycle << ' ' << to_string(e.kind) << " m" << e.message;
      if (e.vc != kInvalidVc) out << " vc" << e.vc;
      if (e.vc2 != kInvalidVc) out << " <-vc" << e.vc2;
      if (e.arg != 0) out << " arg=" << e.arg;
      out << '\n';
    }
  }
  return out.str();
}

}  // namespace flexnet
