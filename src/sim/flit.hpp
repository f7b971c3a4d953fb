// A flit: the unit of flow control. Flits carry only their message id,
// sequence number and arrival cycle; head/tail status is derived from the
// owning message's length, keeping the struct at 24 bytes for
// cache-friendly buffers.
#pragma once

#include "sim/types.hpp"

namespace flexnet {

struct Flit {
  MessageId message = kInvalidMessage;
  std::int32_t seq = 0;  ///< 0-based position within the message.
  Cycle arrived = -1;    ///< Cycle the flit entered its current buffer; used
                         ///< to enforce at most one hop per cycle.

  [[nodiscard]] constexpr bool is_head() const noexcept { return seq == 0; }
  [[nodiscard]] constexpr bool is_tail_of(std::int32_t message_length) const noexcept {
    return seq == message_length - 1;
  }
  friend constexpr bool operator==(const Flit&, const Flit&) noexcept = default;
};

static_assert(sizeof(Flit) == 24, "a flit is an id, a sequence and a cycle");

}  // namespace flexnet
