// Channel-selection policies: how a router orders the candidate channels
// supplied by the routing relation before trying to allocate a VC. The paper
// uses a policy that "favors continuing routing in the current dimension over
// turning" (Section 3); Random and LowestIndex support the ablation bench.
#pragma once

#include <memory>
#include <string_view>
#include <vector>

#include "sim/config.hpp"
#include "sim/message.hpp"
#include "sim/types.hpp"
#include "util/rng.hpp"

namespace flexnet {

class Network;

class SelectionPolicy {
 public:
  virtual ~SelectionPolicy() = default;

  [[nodiscard]] virtual std::string_view name() const noexcept = 0;

  /// Reorders `channels` in place into preference order (most preferred
  /// first). `in_vc` identifies the VC holding the header.
  ///
  /// Contract: a one-element list is left unchanged and draws nothing from
  /// `rng`. The network relies on it to skip ordering single candidates, so
  /// the draw stream stays identical (tests/test_selection.cpp).
  virtual void order(const Network& net, const Message& msg, VcId in_vc,
                     std::vector<ChannelId>& channels, Pcg32& rng) const = 0;
};

[[nodiscard]] std::unique_ptr<SelectionPolicy> make_selection(SelectionKind kind);

}  // namespace flexnet
