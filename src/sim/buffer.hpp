// Fixed-capacity flit FIFO backing each virtual channel's edge buffer.
#pragma once

#include <cassert>
#include <vector>

#include "sim/flit.hpp"

namespace flexnet {

class BinReader;
class BinWriter;

class FlitFifo {
 public:
  explicit FlitFifo(int capacity);

  [[nodiscard]] int capacity() const noexcept { return static_cast<int>(slots_.size()); }
  [[nodiscard]] int size() const noexcept { return count_; }
  [[nodiscard]] bool empty() const noexcept { return count_ == 0; }
  [[nodiscard]] bool full() const noexcept { return count_ == capacity(); }

  // The hot operations are inline and wrap with a compare, not `%`: they
  // run once per flit hop in the transmit walk.

  /// Precondition: !full().
  void push(const Flit& flit) {
    assert(!full());
    slots_[static_cast<std::size_t>(wrap(head_ + count_))] = flit;
    ++count_;
  }
  /// Precondition: !empty().
  Flit pop() {
    assert(!empty());
    const Flit flit = slots_[static_cast<std::size_t>(head_)];
    head_ = wrap(head_ + 1);
    --count_;
    return flit;
  }
  /// Precondition: !empty().
  [[nodiscard]] const Flit& front() const {
    assert(!empty());
    return slots_[static_cast<std::size_t>(head_)];
  }
  /// Flit at offset `i` from the front; precondition i < size().
  [[nodiscard]] const Flit& at(int i) const {
    assert(i >= 0 && i < count_);
    return slots_[static_cast<std::size_t>(wrap(head_ + i))];
  }

  void clear() noexcept { head_ = count_ = 0; }

  /// Snapshot hooks: the logical front-to-back flit sequence (head position
  /// is an internal detail, so a round trip is canonicalizing). restore()
  /// throws std::runtime_error when the stored count exceeds capacity.
  void save_state(BinWriter& out) const;
  void restore_state(BinReader& in);

 private:
  /// A slot index in [0, 2 * capacity) folded into [0, capacity).
  [[nodiscard]] int wrap(int index) const noexcept {
    return index >= capacity() ? index - capacity() : index;
  }

  std::vector<Flit> slots_;
  int head_ = 0;
  int count_ = 0;
};

}  // namespace flexnet
