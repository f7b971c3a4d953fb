// Spatial heatmap: where in the network traffic flows and congestion sits.
//
// Three kinds of counters:
//  * per-channel / per-VC traversal counts — exact, incremented by a
//    null-guarded hook in the transmit phase (one flit per channel per
//    cycle, so a traversal count is also the channel's active-cycle count);
//  * per-VC busy / blocked cycles — accumulated at every telemetry sampling
//    instant (each owned VC gains the interval's cycle count; "blocked"
//    additionally requires the owning message's header to be blocked), i.e.
//    piecewise-constant occupancy integration at the sampling resolution;
//  * per-node injection-stall cycles — exact: one per route phase in which
//    a node's source queue stays non-empty after injection grants. Such a
//    node sleeps until an injection VC frees, so the network credits the
//    phases it slept through at its next visit, and every reader adds the
//    span still open (Network::injection_stall_span).
//
// Renderable as ASCII density grids for 2D topologies and dumpable as a
// single CSV (channel, VC and node rows discriminated by a `row` column).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "sim/types.hpp"

namespace flexnet {

class Network;

class SpatialHeatmap {
 public:
  struct ChannelCounters {
    std::int64_t traversals = 0;      ///< Flits transmitted (exact).
    std::int64_t busy_cycles = 0;     ///< Sampled VC-occupancy cycles.
    std::int64_t blocked_cycles = 0;  ///< Sampled blocked-owner cycles.
  };

  /// Sizes every counter array from the network's static shape.
  explicit SpatialHeatmap(const Network& net);

  // --- hot-path hooks (call sites in Network are null-guarded) -------------
  void on_traversal(ChannelId channel, VcId vc) noexcept {
    ++channels_[static_cast<std::size_t>(channel)].traversals;
    ++vc_traversals_[static_cast<std::size_t>(vc)];
  }
  void on_injection_stall(NodeId node, Cycle cycles) noexcept {
    injection_stall_cycles_[static_cast<std::size_t>(node)] += cycles;
  }

  /// Occupancy accumulation at a sampling instant: every owned VC gains
  /// `cycles_covered` busy cycles (blocked cycles too when its owner's
  /// header is blocked).
  void sample_occupancy(const Network& net, Cycle cycles_covered);

  // --- observers -----------------------------------------------------------
  [[nodiscard]] const ChannelCounters& channel(ChannelId id) const {
    return channels_.at(static_cast<std::size_t>(id));
  }
  /// Stall cycles of `node` so far, its open span on `net` included when
  /// this heatmap is the one `net` has installed.
  [[nodiscard]] std::int64_t injection_stall_cycles(const Network& net,
                                                    NodeId node) const;

  [[nodiscard]] std::int64_t total_traversals() const noexcept;
  [[nodiscard]] std::int64_t total_blocked_cycles() const noexcept;
  [[nodiscard]] std::int64_t total_injection_stalls(const Network& net) const;

  /// Network-channel ids (< `num_network_channels`) ordered by descending
  /// `traversals` (ties by id); at most `top` entries. The manifest's "hot
  /// channels" list — injection/ejection channels are excluded so endpoint
  /// totals don't drown the fabric.
  [[nodiscard]] std::vector<ChannelId> hottest_channels(
      std::size_t top, std::size_t num_network_channels) const;

  enum class Field : std::uint8_t {
    Traversals,       ///< Incoming network-channel flit counts per node.
    BlockedCycles,    ///< Incoming network-channel blocked cycles per node.
    InjectionStalls,  ///< Source-queue stall cycles per node.
  };

  /// ASCII density rendering. 2-D tori/meshes get the grid form (one glyph
  /// per node, dimension 0 horizontal, scale ' .:-=+*#%@' normalized to the
  /// hottest node, with a legend line); every other topology gets a
  /// degree-ordered per-node table (node, degree, value, '#' bar) so
  /// irregular networks still have a human-readable view.
  [[nodiscard]] std::string ascii_grid(const Network& net, Field field) const;

  /// CSV dump: one row per channel, per VC, and per node, discriminated by
  /// the leading `row` column. Fixed schema (see write_csv header row).
  void write_csv(std::ostream& out, const Network& net) const;

 private:
  std::vector<ChannelCounters> channels_;
  std::vector<std::int64_t> vc_traversals_;
  std::vector<std::int64_t> vc_busy_;
  std::vector<std::int64_t> vc_blocked_;
  std::vector<std::int64_t> injection_stall_cycles_;
};

[[nodiscard]] std::string_view to_string(SpatialHeatmap::Field field) noexcept;

}  // namespace flexnet
