// Per-shard state for the shard-structured step workers (DESIGN.md §3j).
// The default engine is one shard stepped inline; `--shards N` runs one
// worker thread per shard.
//
// Each worker owns one ShardCtx: the shard's slice of the three
// active sets, its own arc-epoch term, reusable scratch buffers, and the
// per-cycle result buffers that the main thread folds into global state at
// each phase commit. Workers write only (a) simulation state owned by their
// shard (their nodes' queues/ejection VCs, their channels' VCs and cursors),
// (b) exclusively-held cross-shard cells (an upstream VC being popped by its
// unique downstream mover), and (c) their own ShardCtx. Everything ordered —
// the active_ list, new pending headers, the trace stream, counters — is
// buffered here with a canonical sort key and committed single-threaded, so
// an N-shard run is byte-identical to the 1-shard run. The pending rotation
// needs no buffer: the route commit rotates pending_ itself.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/active.hpp"
#include "sim/flit.hpp"
#include "sim/types.hpp"
#include "trace/trace.hpp"

namespace flexnet {

struct PhysChannel;
struct VcState;

/// One flit drained from an ejection VC this cycle (deliver phase). At most
/// one per node per cycle, produced in ascending node order within a shard;
/// the commit merges shards by node id and runs tail completions in that
/// order (exactly the one-shard sweep's order).
struct ShardDelivery {
  NodeId node = kInvalidNode;
  MessageId msg = kInvalidMessage;
  VcId eject_vc = kInvalidVc;
  std::int32_t seq = 0;   ///< Flit sequence number (trace payload).
  bool tail = false;      ///< Completes the message at commit.
};

/// A transmit move decided against transmit-start state (decide_move, in
/// sub-phase T1 or the one-shard walk). `upstream == nullptr` marks an
/// injection move (the flit is synthesized from the source at the push);
/// otherwise the pop takes `flit` from `upstream`. The pointers index the
/// network's channel and VC tables, which never reallocate after
/// construction, and a move lives for one transmit phase. Pointers, not ids:
/// they measured faster in the one-shard walk (DESIGN.md §3j).
struct ShardMove {
  PhysChannel* channel = nullptr;
  VcState* dst = nullptr;
  VcState* upstream = nullptr;
  int rr_index = 0;  ///< VC index chosen by the round-robin scan.
  Flit flit{};
};

/// A buffered trace event plus its canonical within-phase sort key
/// (component id or scan position). Shard buffers are key-sorted by
/// construction; the commit k-way merges them.
struct ShardTraceRecord {
  std::uint64_t key = 0;
  TraceEvent event{};
};

/// A head flit that entered a new VC this cycle and must join pending_.
/// Keyed by channel id (the one-shard walk's visit order; at most one per
/// channel per cycle).
struct ShardPendingAdd {
  ChannelId channel = kInvalidChannel;
  VcId vc = kInvalidVc;
};

struct ShardCtx {
  std::int32_t shard = 0;

  // The shard's slice of the scheduler. Full-capacity bitmaps holding only
  // this shard's component ids (a 32k-node set is 4 KiB — the sparse scan
  // skips foreign regions word-wise).
  ActiveSet src_active;
  ActiveSet eject_active;
  ActiveSet chan_active;

  /// This shard's term of the composed arc epoch (monotonic, never reset
  /// while sharding is enabled; folded into the base counter on reshard).
  std::uint64_t epoch = 0;

  // --- per-cycle result buffers (cleared each phase) -----------------------
  std::vector<ShardDelivery> deliveries;
  std::int64_t flits_delivered = 0;

  std::vector<MessageId> grants;  ///< Injection grants, node-then-queue order.
  std::int64_t injected = 0;
  /// Scan positions of the headers granted a VC this route phase, ascending;
  /// commit_route drops them from pending_.
  std::vector<std::uint32_t> routed;

  std::vector<ShardMove> moves;
  std::vector<ShardPendingAdd> pending_adds;
  /// Cross-shard scheduler wakeups (transmit only: route/deliver wakes are
  /// provably shard-local). Drained into the owning shards' chan_active at
  /// commit; insertion is idempotent so order is irrelevant.
  std::vector<ChannelId> wake_outbox;
  /// Header wakes of the N-shard push pass, applied at commit (idempotent,
  /// so order is irrelevant): released VCs a dormant header watches, and the
  /// head VCs of blocked messages whose held chain shrank.
  std::vector<VcId> released_watched;
  std::vector<VcId> shrunk_heads;

  std::vector<ShardTraceRecord> trace_buf;

  // --- reusable header-routing scratch -------------------------------------
  // A retry's candidate channels (selection orders them in place) and their
  // allowed VCs; a request-set change swaps the old set into scratch_vcs.
  std::vector<ChannelId> scratch_channels;
  std::vector<VcId> scratch_vcs;
};

}  // namespace flexnet
