// Message lifecycle state. A message is generated into its source queue,
// acquires the injection VC, streams flit-by-flit through a chain of
// exclusively-owned VCs (wormhole), and finishes by delivery or by deadlock
// recovery. The `held` chain and `request_set` are exactly the solid and
// dashed arcs of the paper's channel wait-for graph.
#pragma once

#include <vector>

#include "sim/message_class.hpp"
#include "sim/types.hpp"

namespace flexnet {

enum class MessageStatus : std::uint8_t {
  Queued,     ///< Waiting in the source queue for the injection channel.
  InFlight,   ///< Owns at least the injection VC.
  Delivered,  ///< Tail consumed at the destination.
  Recovered,  ///< Removed by deadlock recovery (synthesized delivery).
};

struct Message {
  MessageId id = kInvalidMessage;
  NodeId src = kInvalidNode;
  NodeId dst = kInvalidNode;
  std::int32_t length = 0;
  MessageClass cls = MessageClass::Bulk;  ///< Workload class tag.

  Cycle created = -1;   ///< Cycle the message entered the source queue.
  Cycle injected = -1;  ///< Cycle its head flit entered the injection VC.
  Cycle finished = -1;  ///< Delivery or recovery cycle.
  MessageStatus status = MessageStatus::Queued;

  std::int32_t flits_sent = 0;       ///< Flits that have left the source.
  std::int32_t flits_delivered = 0;  ///< Flits consumed at the destination.
  std::int32_t hops = 0;             ///< Network channels acquired so far.
  std::int32_t misroutes = 0;        ///< Non-minimal hops taken.

  /// Header failed VC allocation this cycle (the paper's "blocked" state).
  bool blocked = false;
  Cycle blocked_since = -1;

  /// Currently owned VCs in acquisition order (CWG solid-arc chain).
  std::vector<VcId> held;
  /// VCs the blocked header could acquire right now (CWG dashed arcs), in
  /// the routing relation's candidate order.
  std::vector<VcId> request_set;

  [[nodiscard]] bool in_network() const noexcept {
    return status == MessageStatus::InFlight;
  }
  /// End-to-end latency from generation to completion; -1 while unfinished.
  [[nodiscard]] Cycle latency() const noexcept {
    return finished >= 0 ? finished - created : -1;
  }
};

}  // namespace flexnet
