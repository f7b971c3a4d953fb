#include "sim/buffer.hpp"

#include <stdexcept>

#include "util/binio.hpp"

namespace flexnet {

FlitFifo::FlitFifo(int capacity) {
  if (capacity < 1) throw std::invalid_argument("FlitFifo capacity must be >= 1");
  slots_.resize(static_cast<std::size_t>(capacity));
}

void FlitFifo::save_state(BinWriter& out) const {
  out.i32(count_);
  for (int i = 0; i < count_; ++i) {
    const Flit& f = at(i);
    out.i64(f.message);
    out.i32(f.seq);
    out.i64(f.arrived);
  }
}

void FlitFifo::restore_state(BinReader& in) {
  clear();
  const std::int32_t count = in.i32();
  if (count < 0 || count > capacity()) {
    throw std::runtime_error("snapshot: FlitFifo count " +
                             std::to_string(count) + " exceeds capacity " +
                             std::to_string(capacity()));
  }
  for (std::int32_t i = 0; i < count; ++i) {
    Flit f;
    f.message = in.i64();
    f.seq = in.i32();
    f.arrived = in.i64();
    push(f);
  }
}

}  // namespace flexnet
