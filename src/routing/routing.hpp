// Routing relation interface.
//
// A routing algorithm answers: for a message whose header sits at router
// `here` (having arrived through `in_vc`), which output channels may it take,
// and which VC indices on those channels may it use. The simulator turns the
// answer into the candidate VC set that drives both allocation and the
// dashed (request) arcs of the channel wait-for graph.
//
// Contract: candidate_channels and vc_allowed are pure functions of
//   * the topology and the fault map (both fixed after construction),
//   * the message's src, dst and misroutes,
//   * the header's router and in-VC, and
//   * which VCs the message holds (TFAR's self-owned detour check).
// Nothing else, in particular no other message's state or VC occupancy.
// The network lets a blocked header sleep on this contract (DESIGN.md §3h):
// while a header sits in one VC its misroutes cannot change and its held
// chain only shrinks, so its answer can change only when the chain shrinks,
// which wakes it. A relation that reads anything more needs a wake for it.
#pragma once

#include <memory>
#include <string_view>
#include <vector>

#include "sim/config.hpp"
#include "sim/message.hpp"
#include "sim/types.hpp"

namespace flexnet {

class Network;

class RoutingAlgorithm {
 public:
  virtual ~RoutingAlgorithm() = default;

  [[nodiscard]] virtual std::string_view name() const noexcept = 0;

  /// Called once, at the end of Network construction, before any routing
  /// query. Table-based algorithms build (or load) their next-channel tables
  /// here; the torus algorithms need no setup and keep the default no-op.
  virtual void attach(const Network& net);

  /// Appends the permitted output channels for `msg` at router `here`.
  /// `in_vc` is the VC holding the header (an injection VC for the first
  /// hop). Must never produce an empty set when here != msg.dst.
  virtual void candidate_channels(const Network& net, const Message& msg,
                                  NodeId here, VcId in_vc,
                                  std::vector<ChannelId>& out) const = 0;

  /// Whether VC `vc_index` of `out_ch` may be used for this hop. Default:
  /// unrestricted (the paper's DOR/TFAR); avoidance algorithms restrict.
  [[nodiscard]] virtual bool vc_allowed(const Network& net, const Message& msg,
                                        ChannelId out_ch, int vc_index,
                                        VcId in_vc) const;

  /// When true the allocator tries high VC indices first (Duato's protocol
  /// keeps low indices as escape channels of last resort).
  [[nodiscard]] virtual bool prefer_high_vc_indices() const noexcept {
    return false;
  }

  /// True if the algorithm enforces deadlock freedom (avoidance); false for
  /// the unrestricted algorithms the paper studies under recovery.
  [[nodiscard]] virtual bool deadlock_free() const noexcept { return false; }
};

/// Builds the algorithm selected by `config.routing`.
[[nodiscard]] std::unique_ptr<RoutingAlgorithm> make_routing(const SimConfig& config);

}  // namespace flexnet
