// Fundamental identifier types shared by every flexnet module.
//
// Plain integer aliases (not wrapper classes) are used deliberately: ids index
// into dense vectors on the simulator hot path and are compared billions of
// times per run. Negative sentinel constants mark "no value".
#pragma once

#include <cstdint>

namespace flexnet {

using NodeId = std::int32_t;     ///< Router / endpoint index in [0, N).
using ChannelId = std::int32_t;  ///< Physical channel (link) index.
using VcId = std::int32_t;       ///< Global virtual channel index.
using MessageId = std::int64_t;  ///< Monotonically increasing message index.
using Cycle = std::int64_t;      ///< Simulation time in cycles.

/// Binary state-format version shared by every component codec (snapshot
/// container, Network message/counter layout, detector tallies, obs
/// histograms). Bump together with kSnapshotVersion; component restore
/// functions take the container's version so old snapshots keep loading.
inline constexpr std::uint32_t kStateFormatVersion = 4;

inline constexpr NodeId kInvalidNode = -1;
inline constexpr ChannelId kInvalidChannel = -1;
inline constexpr VcId kInvalidVc = -1;
inline constexpr MessageId kInvalidMessage = -1;

/// What a physical channel connects.
enum class ChannelKind : std::uint8_t {
  Network,    ///< Router-to-router link.
  Injection,  ///< Source queue -> local router.
  Ejection,   ///< Local router -> reception (delivery) interface.
};

}  // namespace flexnet
