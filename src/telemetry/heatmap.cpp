#include "telemetry/heatmap.hpp"

#include <algorithm>
#include <cmath>
#include <ostream>

#include "sim/network.hpp"
#include "topo/torus.hpp"
#include "util/csv.hpp"

namespace flexnet {

namespace {
std::string_view kind_name(ChannelKind kind) noexcept {
  switch (kind) {
    case ChannelKind::Network: return "network";
    case ChannelKind::Injection: return "injection";
    case ChannelKind::Ejection: return "ejection";
  }
  return "?";
}
}  // namespace

std::string_view to_string(SpatialHeatmap::Field field) noexcept {
  switch (field) {
    case SpatialHeatmap::Field::Traversals: return "traversals";
    case SpatialHeatmap::Field::BlockedCycles: return "blocked_cycles";
    case SpatialHeatmap::Field::InjectionStalls: return "injection_stalls";
  }
  return "?";
}

SpatialHeatmap::SpatialHeatmap(const Network& net)
    : channels_(net.num_channels()),
      vc_traversals_(net.num_vcs(), 0),
      vc_busy_(net.num_vcs(), 0),
      vc_blocked_(net.num_vcs(), 0),
      injection_stall_cycles_(
          static_cast<std::size_t>(net.topology().num_nodes()), 0) {}

void SpatialHeatmap::sample_occupancy(const Network& net,
                                      Cycle cycles_covered) {
  if (cycles_covered <= 0) return;
  const std::size_t num_vcs = net.num_vcs();
  for (std::size_t v = 0; v < num_vcs; ++v) {
    const VcState& vc = net.vc(static_cast<VcId>(v));
    if (vc.is_free()) continue;
    vc_busy_[v] += cycles_covered;
    ChannelCounters& ch = channels_[static_cast<std::size_t>(vc.channel)];
    ch.busy_cycles += cycles_covered;
    if (net.message(vc.owner).blocked) {
      vc_blocked_[v] += cycles_covered;
      ch.blocked_cycles += cycles_covered;
    }
  }
}

std::int64_t SpatialHeatmap::total_traversals() const noexcept {
  std::int64_t total = 0;
  for (const ChannelCounters& c : channels_) total += c.traversals;
  return total;
}

std::int64_t SpatialHeatmap::total_blocked_cycles() const noexcept {
  std::int64_t total = 0;
  for (const ChannelCounters& c : channels_) total += c.blocked_cycles;
  return total;
}

std::int64_t SpatialHeatmap::injection_stall_cycles(const Network& net,
                                                    NodeId node) const {
  const std::int64_t credited =
      injection_stall_cycles_.at(static_cast<std::size_t>(node));
  return net.hooks().heatmap == this
             ? credited + net.injection_stall_span(node)
             : credited;
}

std::int64_t SpatialHeatmap::total_injection_stalls(const Network& net) const {
  std::int64_t total = 0;
  for (std::size_t n = 0; n < injection_stall_cycles_.size(); ++n) {
    total += injection_stall_cycles(net, static_cast<NodeId>(n));
  }
  return total;
}

std::vector<ChannelId> SpatialHeatmap::hottest_channels(
    std::size_t top, std::size_t num_network_channels) const {
  std::vector<ChannelId> ids;
  ids.reserve(std::min(num_network_channels, channels_.size()));
  for (std::size_t c = 0; c < channels_.size() && c < num_network_channels;
       ++c) {
    ids.push_back(static_cast<ChannelId>(c));
  }
  std::sort(ids.begin(), ids.end(), [this](ChannelId a, ChannelId b) {
    const auto& ca = channels_[static_cast<std::size_t>(a)];
    const auto& cb = channels_[static_cast<std::size_t>(b)];
    if (ca.traversals != cb.traversals) return ca.traversals > cb.traversals;
    return a < b;
  });
  if (ids.size() > top) ids.resize(top);
  return ids;
}

std::string SpatialHeatmap::ascii_grid(const Network& net, Field field) const {
  const NodeId nodes = net.topology().num_nodes();

  std::vector<double> value(static_cast<std::size_t>(nodes), 0.0);
  if (field == Field::InjectionStalls) {
    for (NodeId n = 0; n < nodes; ++n) {
      value[static_cast<std::size_t>(n)] =
          static_cast<double>(injection_stall_cycles(net, n));
    }
  } else {
    // Aggregate each node's incoming network channels.
    for (std::size_t c = 0; c < net.num_network_channels(); ++c) {
      const PhysChannel& pc = net.phys(static_cast<ChannelId>(c));
      const ChannelCounters& counters = channels_[c];
      value[static_cast<std::size_t>(pc.dst)] +=
          static_cast<double>(field == Field::Traversals
                                  ? counters.traversals
                                  : counters.blocked_cycles);
    }
  }
  double peak = 0.0;
  for (const double v : value) peak = std::max(peak, v);

  static constexpr std::string_view kScale = " .:-=+*#%@";

  // Non-torus (or non-2-D) topologies have no natural grid; render a
  // degree-ordered per-node table instead — the hubs land at the top, which
  // is where irregular-network congestion concentrates.
  const KAryNCube* torus = net.topology().as_torus();
  if (torus == nullptr || torus->dimensions() != 2) {
    const auto pad = [](std::string s, std::size_t width) {
      if (s.size() < width) s.insert(0, width - s.size(), ' ');
      return s;
    };
    std::string out;
    out += "heatmap ";
    out += to_string(field);
    out += " (per-node, degree-ordered, peak=";
    out += TableWriter::num(peak, 0);
    out += ")\n";
    out += "  node  degree       value  bar\n";
    std::vector<NodeId> order(static_cast<std::size_t>(nodes));
    for (NodeId n = 0; n < nodes; ++n) order[static_cast<std::size_t>(n)] = n;
    const Topology& topo = net.topology();
    std::sort(order.begin(), order.end(), [&](NodeId a, NodeId b) {
      const std::size_t da = topo.out_channels(a).size();
      const std::size_t db = topo.out_channels(b).size();
      if (da != db) return da > db;
      return a < b;
    });
    for (const NodeId n : order) {
      const double v = value[static_cast<std::size_t>(n)];
      out += pad(std::to_string(n), 6);
      out += pad(std::to_string(topo.out_channels(n).size()), 8);
      out += pad(TableWriter::num(v, 0), 12);
      out += "  ";
      if (peak > 0.0 && v > 0.0) {
        const int bar = std::max(
            1, static_cast<int>(v / peak * static_cast<double>(kScale.size())));
        out.append(static_cast<std::size_t>(
                       std::min<int>(bar, static_cast<int>(kScale.size()))),
                   '#');
      }
      out += '\n';
    }
    return out;
  }

  const int k = torus->radix();
  std::string out;
  out += "heatmap ";
  out += to_string(field);
  out += " (";
  out += std::to_string(k);
  out += "x";
  out += std::to_string(k);
  out += ", peak=";
  out += TableWriter::num(peak, 0);
  out += ", scale \"";
  out += kScale;
  out += "\")\n";
  // Dimension 0 (least-significant coordinate) runs horizontally.
  for (int y = 0; y < k; ++y) {
    for (int x = 0; x < k; ++x) {
      const auto node = static_cast<std::size_t>(y) *
                            static_cast<std::size_t>(k) +
                        static_cast<std::size_t>(x);
      int idx = 0;
      if (peak > 0.0 && value[node] > 0.0) {
        idx = 1 + static_cast<int>(value[node] / peak *
                                   static_cast<double>(kScale.size() - 2));
        idx = std::min<int>(idx, static_cast<int>(kScale.size()) - 1);
      }
      out += kScale[static_cast<std::size_t>(idx)];
    }
    out += '\n';
  }
  return out;
}

void SpatialHeatmap::write_csv(std::ostream& out, const Network& net) const {
  CsvWriter csv(out);
  csv.header({"row", "id", "kind", "src", "dst", "dim", "dir", "channel",
              "vc_index", "traversals", "busy_cycles", "blocked_cycles",
              "stall_cycles"});
  for (std::size_t c = 0; c < channels_.size(); ++c) {
    const PhysChannel& pc = net.phys(static_cast<ChannelId>(c));
    const ChannelCounters& counters = channels_[c];
    csv.row({"channel", TableWriter::integer(static_cast<long long>(c)),
             std::string(kind_name(pc.kind)), TableWriter::integer(pc.src),
             TableWriter::integer(pc.dst), TableWriter::integer(pc.dim),
             TableWriter::integer(pc.dir), "", "",
             TableWriter::integer(counters.traversals),
             TableWriter::integer(counters.busy_cycles),
             TableWriter::integer(counters.blocked_cycles), ""});
  }
  for (std::size_t v = 0; v < vc_busy_.size(); ++v) {
    const VcState& vc = net.vc(static_cast<VcId>(v));
    const PhysChannel& pc = net.phys(vc.channel);
    csv.row({"vc", TableWriter::integer(static_cast<long long>(v)),
             std::string(kind_name(pc.kind)), TableWriter::integer(pc.src),
             TableWriter::integer(pc.dst), TableWriter::integer(pc.dim),
             TableWriter::integer(pc.dir), TableWriter::integer(vc.channel),
             TableWriter::integer(vc.id - pc.first_vc),
             TableWriter::integer(vc_traversals_[v]),
             TableWriter::integer(vc_busy_[v]),
             TableWriter::integer(vc_blocked_[v]), ""});
  }
  for (std::size_t n = 0; n < injection_stall_cycles_.size(); ++n) {
    csv.row({"node", TableWriter::integer(static_cast<long long>(n)), "", "",
             "", "", "", "", "", "", "", "",
             TableWriter::integer(
                 injection_stall_cycles(net, static_cast<NodeId>(n)))});
  }
}

}  // namespace flexnet
