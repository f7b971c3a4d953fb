// Fixed-capacity flit FIFO backing each virtual channel's edge buffer.
#pragma once

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

  /// Precondition: !full().
  void push(const Flit& flit);
  /// Precondition: !empty().
  Flit pop();
  /// Precondition: !empty().
  [[nodiscard]] const Flit& front() const;
  /// Flit at offset `i` from the front; precondition i < size().
  [[nodiscard]] const Flit& at(int i) const;

  void clear() noexcept { head_ = count_ = 0; }

  /// Snapshot hooks: the logical front-to-back flit sequence (head position
  /// is an internal detail, so a round trip is canonicalizing). restore()
  /// throws std::runtime_error when the stored count exceeds capacity.
  void save_state(BinWriter& out) const;
  void restore_state(BinReader& in);

 private:
  std::vector<Flit> slots_;
  int head_ = 0;
  int count_ = 0;
};

}  // namespace flexnet
