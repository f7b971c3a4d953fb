// The flit-level network simulator (the paper's "FlexSim" substrate).
//
// Each cycle advances three phases:
//   1. deliver  — reception interfaces drain ejection-VC buffers (1 flit per
//                 reception channel per cycle); tails complete messages.
//   2. route    — queued messages contend for injection VCs; unrouted
//                 headers retry VC allocation against the routing relation's
//                 candidate set. Failures mark the message blocked and record
//                 its request set (the CWG's dashed arcs); a blocked header
//                 sleeps until a VC it requests is released, and a source
//                 whose injection VCs are all owned sleeps until one frees.
//   3. transmit — every physical channel moves at most one flit from the
//                 feeding VC into the owned downstream VC (or from the source
//                 queue into an injection VC). A tail flit leaving a buffer
//                 releases that VC in acquisition order (wormhole).
//
// Virtual cut-through behavior emerges when buffer_depth >= message_length.
// The class performs no deadlock handling itself: detection and recovery
// live in src/core and operate through the public observers plus
// remove_message().
#pragma once

#include <array>
#include <deque>
#include <memory>
#include <vector>

#include "sim/channel.hpp"
#include "sim/config.hpp"
#include "sim/message.hpp"
#include "sim/shard.hpp"
#include "sim/types.hpp"
#include "topo/partition.hpp"
#include "topo/topology.hpp"
#include "trace/trace.hpp"

namespace flexnet {

class WorkerPool;

class BinReader;
class BinWriter;
class ObsCollector;
class RoutingAlgorithm;
class SelectionPolicy;
class SpatialHeatmap;
class PhaseProfiler;

/// The single observer-registration surface on Network. Every subsystem that
/// watches the step loop — tracer, telemetry heatmap, phase profiler, obs
/// collector — is a non-owning, null-guarded pointer in this aggregate,
/// installed in one call instead of through per-subsystem setters. Each hook
/// costs one predictable branch per instrumentation point when absent.
struct NetworkHooks {
  Tracer* tracer = nullptr;            ///< Event tracing (src/trace).
  SpatialHeatmap* heatmap = nullptr;   ///< Traversal/stall counters.
  PhaseProfiler* profiler = nullptr;   ///< Per-phase wall-clock accounting.
  ObsCollector* obs = nullptr;         ///< Delivery-latency hook.
};

/// Construction-time dependencies, aggregated so the constructor stops
/// growing positional unique_ptr parameters. `topology` may be null, in
/// which case the network builds one from the SimConfig (make_topology);
/// snapshot restore passes a pre-built topology rebuilt from the embedded
/// section rather than the filesystem.
struct NetworkDeps {
  std::shared_ptr<const Topology> topology;
  std::unique_ptr<RoutingAlgorithm> routing;
  std::unique_ptr<SelectionPolicy> selection;
};

class Network {
 public:
  /// Monotonic event counters; windowed metrics diff snapshots of these.
  /// The per-class arrays partition the corresponding scalar by MessageClass
  /// (scalar == sum over classes), so windowed diffs break down per class
  /// without a second accounting pass.
  struct Counters {
    std::int64_t generated = 0;
    std::int64_t injected = 0;          ///< Messages whose head left the source.
    std::int64_t delivered = 0;         ///< Completed via the network.
    std::int64_t recovered = 0;         ///< Completed via deadlock recovery.
    std::int64_t flits_delivered = 0;
    std::int64_t delivered_latency_sum = 0;
    std::int64_t delivered_hops_sum = 0;
    std::array<std::int64_t, kNumMessageClasses> class_generated{};
    std::array<std::int64_t, kNumMessageClasses> class_delivered{};
    std::array<std::int64_t, kNumMessageClasses> class_recovered{};
    std::array<std::int64_t, kNumMessageClasses> class_latency_sum{};
  };

  Network(const SimConfig& config, NetworkDeps deps);
  ~Network();

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  /// Advances the simulation by one cycle.
  void step();

  /// Creates a message in `src`'s source queue. Returns its id.
  MessageId enqueue_message(NodeId src, NodeId dst, std::int32_t length,
                            MessageClass cls = MessageClass::Bulk);

  /// Deadlock recovery: removes an in-flight message flit-by-flit, freeing
  /// every VC it owns (synthesizes Disha-style recovery delivery).
  void remove_message(MessageId id);

  // --- observers -----------------------------------------------------------
  [[nodiscard]] Cycle now() const noexcept { return now_; }
  [[nodiscard]] const SimConfig& config() const noexcept { return config_; }
  [[nodiscard]] const Topology& topology() const noexcept { return *topo_; }
  [[nodiscard]] const RoutingAlgorithm& routing_algorithm() const noexcept {
    return *routing_;
  }

  [[nodiscard]] std::size_t num_vcs() const noexcept { return vcs_.size(); }
  [[nodiscard]] const VcState& vc(VcId id) const {
    return vcs_[static_cast<std::size_t>(id)];
  }
  [[nodiscard]] std::size_t num_channels() const noexcept { return phys_.size(); }
  [[nodiscard]] const PhysChannel& phys(ChannelId id) const {
    return phys_[static_cast<std::size_t>(id)];
  }
  [[nodiscard]] ChannelId injection_channel(NodeId node) const noexcept;
  [[nodiscard]] ChannelId ejection_channel(NodeId node) const noexcept;
  /// Number of network (router-to-router) channels; their ids are [0, count).
  [[nodiscard]] std::size_t num_network_channels() const noexcept {
    return topo_->channels().size();
  }

  [[nodiscard]] const Message& message(MessageId id) const {
    return messages_[static_cast<std::size_t>(id)];
  }
  [[nodiscard]] std::size_t num_messages() const noexcept {
    return messages_.size();
  }
  /// Messages currently in the network (own at least one VC).
  [[nodiscard]] const std::vector<MessageId>& active_messages() const noexcept {
    return active_;
  }

  [[nodiscard]] const Counters& counters() const noexcept { return counters_; }
  /// Unrouted headers left pending by the last route phase: the ones it
  /// retried and failed plus the dormant ones it passed over. Set only by
  /// the route phase, so a recovery between steps does not lower it.
  [[nodiscard]] int blocked_message_count() const noexcept { return blocked_count_; }
  /// Monotonic counter bumped on every event that changes the channel
  /// wait-for graph: VC acquisition/release (solid arcs), block/unblock and
  /// request-set changes (dashed arcs), message completion/removal, and
  /// snapshot restore. Equal epochs across two instants guarantee an
  /// identical CWG, which lets the deadlock detector skip or reuse a pass.
  /// The counter is composed: a base term (main-thread events) plus one
  /// monotonic term per shard, so workers bump their own term without
  /// synchronization and the sum keeps the equal-epochs guarantee (every
  /// term is non-decreasing, so sums collide only when no term moved).
  [[nodiscard]] std::uint64_t arc_epoch() const noexcept {
    std::uint64_t epoch = arc_epoch_;
    for (const ShardCtx& ctx : shard_ctx_) epoch += ctx.epoch;
    return epoch;
  }
  /// Messages still waiting in source queues; O(1), from the counters
  /// (check_invariants compares it with the queues).
  [[nodiscard]] std::int64_t queued_message_count() const noexcept;
  /// Messages waiting in one node's source queue.
  [[nodiscard]] std::size_t source_queue_length(NodeId node) const noexcept {
    return source_queues_[static_cast<std::size_t>(node)].size();
  }

  /// Channels disabled by fault injection.
  [[nodiscard]] int faulted_channel_count() const noexcept { return faulted_; }

  /// Installs the observer surface wholesale (replacing whatever was
  /// installed before; a default-constructed NetworkHooks detaches
  /// everything). All pointers are non-owning and must outlive their use.
  /// Replacing the heatmap credits the outgoing one with every sleeping
  /// source's open stall span and starts the spans afresh, so each heatmap
  /// counts exactly the route phases it was attached for.
  void install_hooks(const NetworkHooks& hooks) noexcept;
  [[nodiscard]] const NetworkHooks& hooks() const noexcept { return hooks_; }

  /// Route phases `node` has stalled through while asleep (source queue
  /// non-empty, every injection VC owned) that no heatmap has been credited
  /// with yet; 0 for a node that is not asleep. A sleeping source is not
  /// visited, so its stalls are credited in one span at its next visit, and
  /// a heatmap reader adds the open span (SpatialHeatmap does).
  [[nodiscard]] Cycle injection_stall_span(NodeId node) const noexcept {
    const Cycle since = stall_since_[static_cast<std::size_t>(node)];
    return since < 0 ? 0 : now_ - since;
  }

  /// Selects the dense per-cycle sweep (every node and channel visited and
  /// every pending header retried every cycle) instead of the default
  /// event-driven active-set core, which skips sleeping sources and dormant
  /// headers. The dense sweep schedules every source, reception interface
  /// and channel at the top of step(), retries dormant headers too, and
  /// otherwise runs the event core unchanged, so it is the lockstep oracle
  /// for the wakeup, source-wake and header-wake bookkeeping — both paths
  /// produce byte-identical state, traces, counters and heatmaps
  /// (tests/test_step_equivalence.cpp) — kept behind --step-dense the same
  /// way --detector-full-rebuild keeps the detection oracle. Safe to flip
  /// between steps.
  void set_step_dense(bool dense) noexcept { step_dense_ = dense; }
  [[nodiscard]] bool step_dense() const noexcept { return step_dense_; }

  /// Steps with `shards` spatial domains: one worker thread per shard, the
  /// caller participating. 0 and 1 are the same call: one shard, stepped
  /// inline on the calling thread (the default). Safe to flip between steps.
  ///
  /// Every shard count produces byte-identical state, traces, counters and
  /// snapshots: transmit grants buffer space against the occupancy a VC had
  /// when transmit began (a one-cycle credit return), and adaptive selection
  /// draws from a per-(message, cycle) hash stream (DESIGN.md §3j). Every
  /// shard count moves flits through the same decide/pop/push steps: one
  /// shard per channel in one walk, more in barrier-separated passes.
  /// Throws std::invalid_argument for shards > nodes and for more than one
  /// shard while the dense sweep is active (the oracles compose with the
  /// event core, not with each other).
  void set_shards(int shards);
  /// Configured shard count, at least 1.
  [[nodiscard]] int shards() const noexcept {
    return static_cast<int>(shard_ctx_.size());
  }

  /// Scheduler introspection: how many channels the event-driven core will
  /// visit next cycle. Zero on an idle network. Sums the per-shard sets
  /// (they partition the channels, so counts compose).
  [[nodiscard]] std::size_t active_channels() const noexcept {
    std::size_t n = 0;
    for (const ShardCtx& ctx : shard_ctx_) n += ctx.chan_active.count();
    return n;
  }

  /// Peak normalized injection bandwidth: flits/node/cycle at which average
  /// network-channel utilization reaches 1 (paper Section 3 normalization).
  [[nodiscard]] double capacity_flits_per_node(double avg_distance) const noexcept;

  /// True when a blocked message is fully compacted: no flit of it can move
  /// now, and none ever will unless its header is granted a new VC. A knot
  /// whose deadlock set is entirely immobile is a *true* deadlock; a knot
  /// with residual buffer slack can still dissolve on its own (the owner of
  /// a requested VC may release it by tail compaction even though its own
  /// header stays blocked).
  [[nodiscard]] bool message_immobile(MessageId id) const;

  /// Validates every structural invariant (VC exclusivity, chain linkage,
  /// flit conservation). Throws std::logic_error on violation. O(state size);
  /// intended for tests.
  void check_invariants() const;

  // --- snapshot hooks ------------------------------------------------------
  /// Serializes every bit of dynamic state that influences future evolution:
  /// cycle counter, counters, per-channel arbitration cursors
  /// and fault flags, every VC (ownership, routing linkage, buffered flits),
  /// the full message table, source queues, active list and the pending-header
  /// rotation order. save_state → restore_state on a Network built from the
  /// same SimConfig is byte-exact: stepping both produces identical flits.
  void save_state(BinWriter& out) const;
  /// Restores state saved by save_state. The network must have been
  /// constructed from the same SimConfig (same topology/VC shape); throws
  /// std::runtime_error on any structural mismatch or corrupt encoding.
  /// `version` is the snapshot container version the payload was written
  /// under; pre-v3 payloads carry no message classes (all restore as Bulk),
  /// and pre-v4 payloads carry three generator words that are skipped.
  void restore_state(BinReader& in,
                     std::uint32_t version = kStateFormatVersion);

  /// Counters codec, shared with MetricsCollector's window snapshot.
  static void save_counters(BinWriter& out, const Counters& c);
  static void restore_counters(BinReader& in, Counters& c,
                               std::uint32_t version = kStateFormatVersion);

 private:
  void inject_link_faults();
  [[nodiscard]] bool network_strongly_connected() const;

  /// Superset condition keeping a channel scheduled: some owned VC could
  /// move a flit now or next cycle (flit age is deliberately ignored — a
  /// flit that arrived this cycle becomes movable on the next one).
  [[nodiscard]] bool transmit_work_possible(const PhysChannel& pc) const;
  /// Recomputes the per-shard active sets from current state (set_shards and
  /// snapshot restore; the sets are never serialized).
  void rebuild_active_sets();
  /// Clears every dormant and watched byte (set_shards and snapshot
  /// restore), so every pending header is retried once.
  void reset_dormancy();
  /// Releasing `vc`, which a dormant header watches: clears the watch and
  /// wakes every header at the router at its channel's source, the only
  /// router whose headers can request it.
  void wake_requesters(VcId vc);
  /// Credits the attached heatmap with every open stall span and restarts
  /// each span at `restart` (-1 closes it).
  void settle_stall_spans(Cycle restart) noexcept;
  /// The router whose headers sit in `vc`'s buffer.
  [[nodiscard]] NodeId router_at(VcId vc) const {
    return phys(vcs_[static_cast<std::size_t>(vc)].channel).dst;
  }

  // --- shard workers, run by every step mode (network_sharded.cpp, §3j) ---
  // Scheduler routing for main-thread mutations (enqueue_message,
  // remove_message, restore_state, the dense fill) that must land in the
  // right shard's sets.
  void sched_insert_src(NodeId node);
  void sched_insert_eject(NodeId node);
  void sched_wake_channel(ChannelId ch);
  // Shard-aware active-set membership (invariant checks, cold paths).
  [[nodiscard]] bool src_scheduled(NodeId node) const;
  [[nodiscard]] bool eject_scheduled(NodeId node) const;
  [[nodiscard]] bool channel_scheduled(ChannelId ch) const;
  [[nodiscard]] std::int32_t shard_of_node(NodeId node) const noexcept {
    return shard_plan_.node_shard[static_cast<std::size_t>(node)];
  }
  [[nodiscard]] std::int32_t shard_of_channel(ChannelId ch) const noexcept {
    return shard_chan_[static_cast<std::size_t>(ch)];
  }

  void deliver_shard(ShardCtx& ctx);
  void commit_deliver();
  void route_shard(ShardCtx& ctx);
  /// Grants `node`'s queued messages the free injection VCs and unschedules
  /// the node: afterwards its queue is empty or every injection VC is owned
  /// (it sleeps, with an open stall span).
  void route_grants(NodeId node, ShardCtx& ctx);
  /// Attempts allocation for the unrouted header in `head_vc`; a success
  /// sets its route_out and returns true. `scan_index` is its position in
  /// this cycle's rotated scan. A failure leaves the header dormant,
  /// watching its request set.
  bool try_route_header(VcId head_vc, std::uint32_t scan_index,
                        ShardCtx& ctx);
  /// The routing relation's answer for the header in `head`: its candidate
  /// channels in candidate_channels() order, and each channel's allowed VCs
  /// in allocation order, grouped in `channels` order (a channel's group is
  /// the first run of `vcs` in its VC range). A blocked header's request set
  /// is `vcs`, in this order.
  void route_candidates(const Message& msg, const VcState& head,
                        std::vector<ChannelId>& channels,
                        std::vector<VcId>& vcs) const;
  void acquire_vc(Message& msg, VcState& from, VcState& target,
                  std::uint64_t trace_key, ShardCtx& ctx);
  void commit_route();
  // Transmit against transmit-start state, in three steps that every shard
  // count runs: one shard calls them channel by channel in one walk, more
  // run each as a pass. They are force-inlined, so the one-shard walk is
  // one loop body with no calls (DESIGN.md §3j).
  void transmit_phase();
  /// Fills `move` with `pc`'s round-robin winner; false when no VC can move.
  /// Reads only; `pc` is mutable because `move` points into it.
  [[gnu::always_inline]] [[nodiscard]] inline bool decide_move(
      PhysChannel& pc, ShardMove& move);
  /// Takes the move's flit from its upstream VC and stamps the VC popped.
  [[gnu::always_inline]] inline void pop_move(ShardMove& move);
  /// Lands the move's flit downstream. `kInline` (one shard) applies every
  /// effect at once; otherwise the effects that can reach another shard go
  /// to `ctx` for commit_transmit.
  template <bool kInline>
  [[gnu::always_inline]] inline void push_move(const ShardMove& move,
                                               ShardCtx& ctx);
  void transmit_decide_shard(ShardCtx& ctx);
  void commit_transmit();
  /// Buffers a trace event (no-op without a tracer); emitted at phase commit
  /// in ascending key order.
  void trace_buffered(ShardCtx& ctx, std::uint64_t key, TraceEventKind kind,
                      MessageId msg, VcId vc, VcId vc2 = kInvalidVc,
                      std::int32_t arg = 0, NodeId node = kInvalidNode);
  /// Emits each shard's key-sorted trace buffer in one globally ascending
  /// merge, then clears the buffers.
  void flush_buffered_traces();
  /// Calls visit(item) on the items of every shard's `buffer` in ascending
  /// key(item) order. Each buffer is key-sorted and keys are unique across
  /// shards, so the order is the one a single shard would have produced.
  template <typename Item, typename Key, typename Visit>
  void merge_shards(std::vector<Item> ShardCtx::*buffer, Key key,
                    Visit visit);

  /// Emits a trace event when a tracer is attached. `vc`'s downstream router
  /// is the event's location unless `node` overrides it.
  void trace(TraceEventKind kind, MessageId msg, VcId vc,
             VcId vc2 = kInvalidVc, std::int32_t arg = 0,
             NodeId node = kInvalidNode);
  void complete_delivery(Message& msg, VcState& eject_vc);
  void deactivate(Message& msg);

  SimConfig config_;
  std::shared_ptr<const Topology> topo_;
  std::unique_ptr<RoutingAlgorithm> routing_;
  std::unique_ptr<SelectionPolicy> selection_;

  std::vector<PhysChannel> phys_;  // network channels, then injection, then ejection
  std::vector<VcState> vcs_;
  ChannelId first_injection_ = kInvalidChannel;
  ChannelId first_ejection_ = kInvalidChannel;

  std::vector<Message> messages_;
  std::vector<std::deque<MessageId>> source_queues_;
  std::vector<MessageId> active_;
  std::vector<std::int32_t> active_pos_;  // message id -> index in active_
  std::vector<VcId> pending_;             // VCs holding unrouted headers
  // Header dormancy (DESIGN.md §3h), process-local: never serialized. A
  // pending header whose last retry failed is dormant and is skipped until a
  // VC it requests is released or its held chain shrinks, either of which
  // clears its byte. Written by the shard owning the header's router
  // (dormant_: its headers; watched_: VCs on channels out of it); transmit
  // clears dormant_ for a head entering a VC, and buffers its other wakes
  // when N shards run.
  std::vector<std::uint8_t> dormant_;  // VC id -> its header sleeps
  std::vector<std::uint8_t> watched_;  // VC id -> a dormant header wants it
  // The VCs a header at each router can sit in (those of the network
  // channels into it and of its injection channel), as one list per router:
  // router r's are router_vcs_[router_vc_begin_[r], router_vc_begin_[r+1]).
  // A release wakes them all. Built once at construction.
  std::vector<std::int32_t> router_vc_begin_;
  std::vector<VcId> router_vcs_;
  // Node id -> the first route phase of its open injection-stall span
  // (-1: none). Set when a visit leaves the queue non-empty; the next visit
  // or a heatmap reader credits [since, now). Written by the node's shard.
  std::vector<Cycle> stall_since_;

  Cycle now_ = 0;
  std::uint64_t arc_epoch_ = 0;
  int blocked_count_ = 0;
  int faulted_ = 0;
  Counters counters_;
  NetworkHooks hooks_;
  bool step_dense_ = false;

  // Shard state (set_shards; the default is one shard). The per-shard active
  // sets are never serialized and are rebuilt on restore. Invariants,
  // maintained in every step mode, over the union of the shards' sets:
  //   src_active   ⊇ nodes with a queued message and a free injection VC
  //                  (a visited node is always erased; enqueue_message and
  //                  the release of an injection VC insert it);
  //   eject_active ⊇ nodes with any buffered flit in an ejection VC;
  //   chan_active  ⊇ channels with transmit_work_possible().
  // A node with a queued message is scheduled or has an open stall span.
  ShardPlan shard_plan_;
  std::vector<std::int32_t> shard_chan_;  // channel id -> owning shard
  std::vector<ShardCtx> shard_ctx_;
  std::unique_ptr<WorkerPool> pool_;
  // Commit-time merge scratch.
  std::vector<std::size_t> merge_cursor_;
};

}  // namespace flexnet
