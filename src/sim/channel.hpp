// Runtime state of physical channels and their virtual channels.
#pragma once

#include "sim/buffer.hpp"
#include "sim/types.hpp"

namespace flexnet {

/// One virtual channel. The buffer models the edge buffer at the channel's
/// downstream end; a VC is exclusively owned by one message from header
/// allocation until the tail flit leaves the buffer (free <=> buffer empty).
/// Aligned to a cache line, so the VC table never splits a VC across two.
struct alignas(64) VcState {
  VcId id = kInvalidVc;
  ChannelId channel = kInvalidChannel;
  /// Cycle in which transmit last popped a flit from this VC (-1: never),
  /// written by every pop. A decision adds that flit back to read the
  /// occupancy the VC had when transmit began; only the one-shard walk,
  /// which decides after earlier pops, can see this cycle's stamp
  /// (DESIGN.md §3j). The VC's position within its physical channel is
  /// `id - phys(channel).first_vc`.
  Cycle popped_at = -1;

  MessageId owner = kInvalidMessage;
  VcId route_out = kInvalidVc;  ///< Downstream VC the owner forwards into.
  VcId route_in = kInvalidVc;   ///< Upstream VC feeding this one (kInvalidVc
                                ///< when fed directly by the source queue).
  FlitFifo buffer;

  explicit VcState(int buffer_capacity) : buffer(buffer_capacity) {}

  [[nodiscard]] bool is_free() const noexcept { return owner == kInvalidMessage; }

  void release() noexcept {
    owner = kInvalidMessage;
    route_out = kInvalidVc;
    route_in = kInvalidVc;
  }

  /// Full when transmit began: a flit popped earlier in this transmit phase
  /// still counts, so its slot is granted one cycle later (the credit rule).
  [[nodiscard]] bool full_at_transmit_start(Cycle now) const noexcept {
    return buffer.size() + (popped_at == now ? 1 : 0) >= buffer.capacity();
  }
};

static_assert(sizeof(VcState) == 64 && alignof(VcState) == 64,
              "a VC occupies exactly one cache line");

/// One physical channel with its contiguous block of VCs and the round-robin
/// pointer used to arbitrate the single flit it can transmit per cycle.
struct PhysChannel {
  ChannelId id = kInvalidChannel;
  ChannelKind kind = ChannelKind::Network;
  NodeId src = kInvalidNode;  ///< Upstream router (or node, for injection).
  NodeId dst = kInvalidNode;  ///< Downstream router (or node, for ejection).
  int dim = -1;               ///< -1 for injection/ejection channels.
  int dir = 0;
  bool is_wrap = false;

  bool faulted = false;  ///< Disabled link; never a routing candidate.

  VcId first_vc = kInvalidVc;
  int num_vcs = 0;
  int rr_cursor = 0;
};

}  // namespace flexnet
