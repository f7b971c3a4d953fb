// Channel wait-for graph (CWG) — the paper's Section 2.1 construct.
//
// Vertices are virtual channels. For every in-network message, a chain of
// solid arcs records the temporal order of the VCs it currently owns; if the
// message is blocked, dashed (request) arcs run from its newest owned VC to
// every VC its header could acquire at this instant. The graph reflects the
// network's *dynamic* state — not the routing relation — so it is generally
// disconnected. A deadlock exists iff the graph contains a knot.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/graph.hpp"
#include "sim/types.hpp"

namespace flexnet {

class Network;

/// A message's contribution to the CWG.
struct CwgMessage {
  MessageId id = kInvalidMessage;
  std::vector<VcId> held;      ///< Owned VCs, oldest first (solid-arc chain).
  std::vector<VcId> requests;  ///< Desired VCs; non-empty iff blocked.
};

class Cwg {
 public:
  /// Empty graph; populate with rebuild_from_network().
  Cwg() = default;

  /// Hand-built scenario (unit tests reproduce the paper's Figs. 1-4).
  Cwg(int num_vcs, std::vector<CwgMessage> messages);

  /// Snapshot of a live network: every active message's held chain plus the
  /// request sets recorded by the most recent routing attempt.
  [[nodiscard]] static Cwg from_network(const Network& net);

  /// In-place equivalent of from_network: rebuilds this graph from the live
  /// network state while reusing all previously allocated storage (adjacency
  /// rows, owner table, message pool, id index). After the first few passes
  /// every vector runs at its high-water capacity and rebuilds allocate
  /// nothing, which is what makes per-cycle detection affordable.
  void rebuild_from_network(const Network& net);

  [[nodiscard]] const Digraph& graph() const noexcept { return graph_; }
  [[nodiscard]] int num_vcs() const noexcept { return graph_.num_vertices(); }
  [[nodiscard]] std::span<const CwgMessage> messages() const noexcept {
    return {messages_.data(), num_messages_};
  }
  /// Owner of a VC vertex; kInvalidMessage when free.
  [[nodiscard]] MessageId owner_of(VcId vc) const {
    return owner_[static_cast<std::size_t>(vc)];
  }
  /// Lookup by message id; nullptr when the message is not in the graph.
  [[nodiscard]] const CwgMessage* find_message(MessageId id) const;

  /// Subgraph induced by `vcs` (distinct, e.g. a knot's VCs); vertex i
  /// stands for vcs[i]. Costs O(|vcs| + their arcs), not O(num_vcs()): it
  /// reuses an index owned by this graph, so calls on one Cwg must not run
  /// concurrently.
  [[nodiscard]] Digraph induced(std::span<const VcId> vcs) const {
    return graph_.induced(vcs, induced_index_);
  }

  /// Number of solid (ownership) and dashed (request) arcs.
  [[nodiscard]] int num_ownership_arcs() const noexcept { return ownership_arcs_; }
  [[nodiscard]] int num_request_arcs() const noexcept { return request_arcs_; }
  /// Blocked messages = messages contributing request arcs.
  [[nodiscard]] int num_blocked_messages() const noexcept { return blocked_; }

 private:
  void build();

  Digraph graph_;
  /// Grow-only message pool; entries [0, num_messages_) are live this pass.
  /// Dead tail entries keep their held/requests capacity for reuse.
  std::vector<CwgMessage> messages_;
  std::size_t num_messages_ = 0;
  std::vector<MessageId> owner_;
  /// Dense MessageId -> pool-index map. A slot is valid only when its
  /// generation stamp matches the current build, so rebuilds skip the O(max
  /// id) clear an unordered_map (or a plain -1 fill) would need.
  struct IndexSlot {
    std::uint64_t gen = 0;
    std::uint32_t idx = 0;
  };
  std::vector<IndexSlot> index_;
  std::uint64_t generation_ = 0;
  int ownership_arcs_ = 0;
  int request_arcs_ = 0;
  int blocked_ = 0;
  /// induced()'s VC -> subgraph vertex index; -1 everywhere between calls.
  mutable std::vector<int> induced_index_;
};

}  // namespace flexnet
