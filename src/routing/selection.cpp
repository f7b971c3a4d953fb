#include "routing/selection.hpp"

#include <algorithm>
#include <stdexcept>

#include "sim/network.hpp"

namespace flexnet {

namespace {

/// Paper default (Section 3): "a channel selection policy which favors
/// continuing routing in the current dimension over turning".
class PreferStraight final : public SelectionPolicy {
 public:
  [[nodiscard]] std::string_view name() const noexcept override {
    return "PreferStraight";
  }

  void order(const Network& net, const Message& /*msg*/, VcId in_vc,
             std::vector<ChannelId>& channels, Pcg32& rng) const override {
    // Shuffle first so channels of equal preference are tried in random
    // order — without this, adaptive routing degenerates into near-static
    // dimension-ordered paths (the fixed candidate order always favors
    // dimension 0) and artificially correlates resource dependencies.
    for (std::size_t i = channels.size(); i > 1; --i) {
      const auto j = rng.bounded(static_cast<std::uint32_t>(i));
      std::swap(channels[i - 1], channels[j]);
    }
    const PhysChannel& in_ch = net.phys(net.vc(in_vc).channel);
    if (in_ch.kind != ChannelKind::Network) return;  // injection: no history
    // Stable partition, straight channels first. std::stable_sort and
    // std::stable_partition allocate a buffer on every call; rotating each
    // straight channel into place keeps both groups' order without one.
    auto straight_end = channels.begin();
    for (auto it = channels.begin(); it != channels.end(); ++it) {
      if (net.phys(*it).dim == in_ch.dim) {
        std::rotate(straight_end, it, it + 1);
        ++straight_end;
      }
    }
  }
};

class RandomSelection final : public SelectionPolicy {
 public:
  [[nodiscard]] std::string_view name() const noexcept override {
    return "Random";
  }

  void order(const Network& /*net*/, const Message& /*msg*/, VcId /*in_vc*/,
             std::vector<ChannelId>& channels, Pcg32& rng) const override {
    for (std::size_t i = channels.size(); i > 1; --i) {
      const auto j = rng.bounded(static_cast<std::uint32_t>(i));
      std::swap(channels[i - 1], channels[j]);
    }
  }
};

class LowestIndexSelection final : public SelectionPolicy {
 public:
  [[nodiscard]] std::string_view name() const noexcept override {
    return "LowestIndex";
  }

  void order(const Network& /*net*/, const Message& /*msg*/, VcId /*in_vc*/,
             std::vector<ChannelId>& channels, Pcg32& /*rng*/) const override {
    std::sort(channels.begin(), channels.end());
  }
};

}  // namespace

std::unique_ptr<SelectionPolicy> make_selection(SelectionKind kind) {
  switch (kind) {
    case SelectionKind::PreferStraight: return std::make_unique<PreferStraight>();
    case SelectionKind::Random: return std::make_unique<RandomSelection>();
    case SelectionKind::LowestIndex: return std::make_unique<LowestIndexSelection>();
  }
  throw std::invalid_argument("unknown selection kind");
}

}  // namespace flexnet
