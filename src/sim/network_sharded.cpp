// The shard-structured step workers (DESIGN.md §3j), shared by every step
// mode: the default engine is one shard stepped inline, `--shards N` runs N
// shards on the WorkerPool, and the dense oracle is the one-shard engine with
// every component scheduled.
//
// Each phase runs as per-shard workers over the per-shard active sets,
// separated by pool barriers, with every ordered side effect buffered in the
// worker's ShardCtx and folded into global state by a single-threaded commit
// in canonical component order. The result is byte-identical across ALL
// shard counts and step modes (state, traces, counters, snapshots,
// telemetry, metrics streams).
//
// Ownership discipline (the whole correctness argument, verified by TSan):
//  * a shard owns its nodes' queues/ejection interfaces and every physical
//    channel whose SOURCE router it owns, VCs included;
//  * deliver and route touch only owned state — routing candidates are
//    channels out of the header's current router, which the router's shard
//    owns (the cross-shard writes, `from.route_out` in acquire and the
//    header's dormant byte, target the header's own VC, which no other
//    shard touches this phase);
//  * transmit runs the same decide/pop/push steps for every shard count.
//    With two or more shards each is a pass: T1 is read-only against
//    transmit-start state, T2 performs the pops (each VC has a unique
//    downstream mover), T3 performs the pushes (each VC is pushed only by
//    its own channel), so no FlitFifo is ever touched by two threads in the
//    same sub-phase. One shard runs the three per channel in one ascending
//    walk, which reaches the same moves.
//
// Two rules make the semantics independent of shard count and visit order.
// Transmit grants buffer space against the occupancy a VC had when transmit
// began, so a freed slot is refilled one cycle later (a one-cycle credit
// return) whatever the channel numbering. Adaptive selection shuffles with a
// per-(message, cycle) hash stream, so no header's draw depends on how many
// headers drew before it.
//
// Blocked headers sleep (DESIGN.md §3h). A header runs selection only when a
// VC of its routing answer is free, so a failure draws nothing, and one that
// finds its request set unchanged changes nothing. A header whose retry
// failed is dormant, and the route walk passes it over until a VC it
// requests is released (which wakes every header at its router) or its held
// chain shrinks. Every grant, and the order of pending_, is the one a retry
// of every header would give. Sources sleep too: a visit leaves a node's
// queue empty or every injection VC owned, so the node is unscheduled until
// a message is queued or an injection VC is freed.
#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "obs/obs.hpp"
#include "routing/routing.hpp"
#include "routing/selection.hpp"
#include "sim/network.hpp"
#include "telemetry/heatmap.hpp"
#include "telemetry/profiler.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace flexnet {

namespace {
/// Retry trace/order keys sort after every grant key (node ids < 2^31).
constexpr std::uint64_t kRetryKeyBase = 1ull << 32;
}  // namespace

void Network::set_shards(int shards) {
  if (shards < 0) throw std::invalid_argument("shard count must be >= 0");
  if (shards > topo_->num_nodes()) {
    throw std::invalid_argument("shard count exceeds node count (" +
                                std::to_string(topo_->num_nodes()) + ")");
  }
  if (shards > 1 && step_dense_) {
    throw std::invalid_argument(
        "more than one shard cannot combine with the dense sweep oracle");
  }
  // Fold the per-shard epoch terms into the base counter so arc_epoch()
  // stays monotonic across resharding.
  arc_epoch_ = arc_epoch();
  pool_.reset();

  // 0 means 1: one shard, stepped inline by a one-party pool.
  shard_plan_ = make_shard_plan(*topo_, std::max(shards, 1));
  shard_chan_.resize(phys_.size());
  for (const PhysChannel& pc : phys_) {
    // Injection/ejection channels have src == dst == their node, so one rule
    // covers all kinds: a channel belongs to its source router's shard.
    shard_chan_[static_cast<std::size_t>(pc.id)] = shard_plan_.shard_of(pc.src);
  }

  shard_ctx_.clear();
  shard_ctx_.resize(static_cast<std::size_t>(shard_plan_.shards));
  const auto nodes = static_cast<std::size_t>(topo_->num_nodes());
  for (std::size_t s = 0; s < shard_ctx_.size(); ++s) {
    ShardCtx& ctx = shard_ctx_[s];
    ctx.shard = static_cast<std::int32_t>(s);
    ctx.src_active.reset(nodes);
    ctx.eject_active.reset(nodes);
    ctx.chan_active.reset(phys_.size());
  }
  merge_cursor_.assign(shard_ctx_.size(), 0);
  pool_ = std::make_unique<WorkerPool>(shard_ctx_.size());
  rebuild_active_sets();
  reset_dormancy();
}

void Network::sched_insert_src(NodeId node) {
  shard_ctx_[static_cast<std::size_t>(shard_of_node(node))].src_active.insert(
      node);
}

void Network::sched_insert_eject(NodeId node) {
  shard_ctx_[static_cast<std::size_t>(shard_of_node(node))].eject_active.insert(
      node);
}

void Network::sched_wake_channel(ChannelId ch) {
  shard_ctx_[static_cast<std::size_t>(shard_of_channel(ch))].chan_active.insert(
      ch);
}

bool Network::src_scheduled(NodeId node) const {
  return shard_ctx_[static_cast<std::size_t>(shard_of_node(node))]
      .src_active.contains(node);
}

bool Network::eject_scheduled(NodeId node) const {
  return shard_ctx_[static_cast<std::size_t>(shard_of_node(node))]
      .eject_active.contains(node);
}

bool Network::channel_scheduled(ChannelId ch) const {
  return shard_ctx_[static_cast<std::size_t>(shard_of_channel(ch))]
      .chan_active.contains(ch);
}

void Network::trace_buffered(ShardCtx& ctx, std::uint64_t key,
                             TraceEventKind kind, MessageId msg, VcId vc,
                             VcId vc2, std::int32_t arg, NodeId node) {
  ShardTraceRecord rec;
  rec.key = key;
  rec.event.cycle = now_;
  rec.event.kind = kind;
  rec.event.message = msg;
  rec.event.vc = vc;
  rec.event.vc2 = vc2;
  rec.event.arg = arg;
  rec.event.node = (node != kInvalidNode || vc == kInvalidVc)
                       ? node
                       : phys(vcs_[static_cast<std::size_t>(vc)].channel).dst;
  ctx.trace_buf.push_back(rec);
}

template <typename Item, typename Key, typename Visit>
void Network::merge_shards(std::vector<Item> ShardCtx::*buffer, Key key,
                           Visit visit) {
  if (shard_ctx_.size() == 1) {
    for (const Item& item : shard_ctx_.front().*buffer) visit(item);
    return;
  }
  // K-way merge. Keys are unique across shards within a phase (each
  // component or scan position is processed by exactly one shard), so ties
  // cannot occur.
  std::fill(merge_cursor_.begin(), merge_cursor_.end(), 0);
  for (;;) {
    std::size_t best = shard_ctx_.size();
    for (std::size_t s = 0; s < shard_ctx_.size(); ++s) {
      const std::vector<Item>& items = shard_ctx_[s].*buffer;
      if (merge_cursor_[s] < items.size() &&
          (best == shard_ctx_.size() ||
           key(items[merge_cursor_[s]]) <
               key((shard_ctx_[best].*buffer)[merge_cursor_[best]]))) {
        best = s;
      }
    }
    if (best == shard_ctx_.size()) return;
    visit((shard_ctx_[best].*buffer)[merge_cursor_[best]++]);
  }
}

void Network::flush_buffered_traces() {
  if (hooks_.tracer != nullptr) {
    merge_shards(
        &ShardCtx::trace_buf,
        [](const ShardTraceRecord& rec) { return rec.key; },
        [this](const ShardTraceRecord& rec) {
          hooks_.tracer->emit(rec.event);
        });
  }
  for (ShardCtx& ctx : shard_ctx_) ctx.trace_buf.clear();
}

// --- deliver ---------------------------------------------------------------

void Network::deliver_shard(ShardCtx& ctx) {
  ctx.deliveries.clear();
  ctx.flits_delivered = 0;
  for (std::int32_t node = ctx.eject_active.first(); node != -1;
       node = ctx.eject_active.next_after(node)) {
    PhysChannel& pc = phys_[static_cast<std::size_t>(ejection_channel(node))];
    for (int j = 0; j < pc.num_vcs; ++j) {
      const int idx = (pc.rr_cursor + j) % pc.num_vcs;
      VcState& w = vcs_[static_cast<std::size_t>(pc.first_vc + idx)];
      if (w.buffer.empty() || w.buffer.front().arrived >= now_) continue;
      const Flit flit = w.buffer.pop();
      ctx.chan_active.insert(pc.id);  // freed space: the ejector can pull again
      Message& msg = messages_[static_cast<std::size_t>(flit.message)];
      ++msg.flits_delivered;
      ++ctx.flits_delivered;
      const bool tail = flit.is_tail_of(msg.length);
      if (tail || hooks_.tracer != nullptr) {
        ShardDelivery rec;
        rec.node = node;
        rec.msg = msg.id;
        rec.eject_vc = w.id;
        rec.seq = flit.seq;
        rec.tail = tail;
        ctx.deliveries.push_back(rec);
      }
      pc.rr_cursor = (idx + 1) % pc.num_vcs;
      break;  // one flit per reception channel per cycle
    }
    bool drained = true;
    for (int i = 0; i < pc.num_vcs; ++i) {
      if (!vcs_[static_cast<std::size_t>(pc.first_vc + i)].buffer.empty()) {
        drained = false;
        break;
      }
    }
    if (drained) ctx.eject_active.erase(node);
  }
}

void Network::commit_deliver() {
  for (const ShardCtx& ctx : shard_ctx_) {
    counters_.flits_delivered += ctx.flits_delivered;
  }
  // Merge by node id — the order the one-shard sweep visits reception
  // interfaces — emitting the flit trace and running tail completions (which
  // touch the active list, delivered counters, obs hook and base epoch) on
  // this thread.
  merge_shards(
      &ShardCtx::deliveries, [](const ShardDelivery& rec) { return rec.node; },
      [this](const ShardDelivery& rec) {
        Message& msg = messages_[static_cast<std::size_t>(rec.msg)];
        if (hooks_.tracer != nullptr) {
          trace(TraceEventKind::FlitDelivered, msg.id, rec.eject_vc,
                kInvalidVc, rec.seq);
        }
        if (rec.tail) {
          complete_delivery(msg, vcs_[static_cast<std::size_t>(rec.eject_vc)]);
        }
      });
}

// --- route -----------------------------------------------------------------

void Network::route_shard(ShardCtx& ctx) {
  ctx.grants.clear();
  ctx.injected = 0;
  ctx.routed.clear();
  ctx.trace_buf.clear();

  // Injection grants for this shard's scheduled nodes.
  for (std::int32_t node = ctx.src_active.first(); node != -1;
       node = ctx.src_active.next_after(node)) {
    route_grants(node, ctx);
  }

  // Walk every unrouted header whose current router this shard owns, in the
  // globally rotated order so the scan positions — the order the 1-shard run
  // retries headers in, and their trace keys — are shard-independent. A
  // dormant header would fail again without a change, so it is passed over;
  // the dense oracle retries it. commit_route drops the granted headers by
  // their recorded positions.
  const std::size_t count = pending_.size();
  std::size_t pos = count == 0 ? 0 : static_cast<std::size_t>(now_) % count;
  const bool owns_all = shard_ctx_.size() == 1;
  const bool retry_dormant = step_dense_;
  for (std::size_t i = 0; i < count; ++i) {
    const VcId head_vc = pending_[pos];
    if (++pos == count) pos = 0;
    if (!owns_all && shard_of_node(router_at(head_vc)) != ctx.shard) continue;
    if (!retry_dormant && dormant_[static_cast<std::size_t>(head_vc)] != 0) {
      continue;
    }
    const auto scan_index = static_cast<std::uint32_t>(i);
    if (try_route_header(head_vc, scan_index, ctx)) {
      ctx.routed.push_back(scan_index);
    }
  }
}

void Network::route_grants(NodeId node, ShardCtx& ctx) {
  // Every visit unschedules the node: afterwards its queue is empty or every
  // injection VC is owned, and enqueue_message or the release of an
  // injection VC schedules it again.
  ctx.src_active.erase(node);
  Cycle& since = stall_since_[static_cast<std::size_t>(node)];
  if (since >= 0) {
    // The route phases [since, now_) each left a message waiting: credit
    // them at once. Per-node counter slot: safe to bump from the owning
    // shard's worker.
    if (hooks_.heatmap != nullptr) {
      hooks_.heatmap->on_injection_stall(node, now_ - since);
    }
    since = -1;
  }
  auto& queue = source_queues_[static_cast<std::size_t>(node)];
  if (queue.empty()) return;
  const PhysChannel& pc =
      phys_[static_cast<std::size_t>(injection_channel(node))];
  for (int i = 0; i < pc.num_vcs && !queue.empty(); ++i) {
    VcState& vc = vcs_[static_cast<std::size_t>(pc.first_vc + i)];
    if (!vc.is_free()) continue;
    Message& msg = messages_[static_cast<std::size_t>(queue.front())];
    queue.pop_front();
    vc.owner = msg.id;
    vc.route_in = kInvalidVc;  // fed directly by the source
    msg.held.push_back(vc.id);
    ++ctx.epoch;  // a new ownership chain enters the CWG
    msg.status = MessageStatus::InFlight;
    msg.injected = now_;
    ctx.grants.push_back(msg.id);  // active_ membership applied at commit
    ++ctx.injected;
    ctx.chan_active.insert(pc.id);  // injection channel has source flits
    if (hooks_.tracer != nullptr) {
      const auto key = static_cast<std::uint64_t>(node);
      trace_buffered(ctx, key, TraceEventKind::VcAllocated, msg.id, vc.id);
      trace_buffered(ctx, key, TraceEventKind::MessageInjected, msg.id, vc.id,
                     kInvalidVc,
                     static_cast<std::int32_t>(class_index(msg.cls)));
    }
  }
  // A still-waiting head after the grant pass is an injection stall, this
  // phase and every phase until the node's next visit.
  if (!queue.empty()) since = now_;
}

void Network::route_candidates(const Message& msg, const VcState& head,
                               std::vector<ChannelId>& channels,
                               std::vector<VcId>& vcs) const {
  channels.clear();
  const NodeId here = phys(head.channel).dst;
  if (here == msg.dst) {
    channels.push_back(ejection_channel(here));
  } else {
    routing_->candidate_channels(*this, msg, here, head.id, channels);
    assert(!channels.empty());
  }

  vcs.clear();
  const bool high_first = routing_->prefer_high_vc_indices();
  for (const ChannelId ch : channels) {
    const PhysChannel& pc = phys(ch);
    for (int j = 0; j < pc.num_vcs; ++j) {
      const int idx = high_first ? pc.num_vcs - 1 - j : j;
      if (pc.kind == ChannelKind::Network &&
          !routing_->vc_allowed(*this, msg, ch, idx, head.id)) {
        continue;
      }
      vcs.push_back(pc.first_vc + idx);
    }
  }
  assert(!vcs.empty());
}

bool Network::try_route_header(VcId head_vc, std::uint32_t scan_index,
                               ShardCtx& ctx) {
  VcState& v = vcs_[static_cast<std::size_t>(head_vc)];
  assert(v.owner != kInvalidMessage && v.route_out == kInvalidVc);
  assert(!v.buffer.empty() && v.buffer.front().is_head());
  Message& msg = messages_[static_cast<std::size_t>(v.owner)];
  const std::uint64_t key = kRetryKeyBase + scan_index;

  std::vector<ChannelId>& channels = ctx.scratch_channels;
  std::vector<VcId>& wants = ctx.scratch_vcs;
  route_candidates(msg, v, channels, wants);
  const auto is_free = [this](VcId id) {
    return vcs_[static_cast<std::size_t>(id)].is_free();
  };
  if (std::any_of(wants.begin(), wants.end(), is_free)) {
    // Order the candidates by the selection policy and take the first free
    // allowed VC. A one-channel list is left as is and draws nothing (the
    // SelectionPolicy::order contract). The stream is a pure function of
    // (seed, message, cycle): no shard schedule, visit order or skipped
    // retry can change a draw.
    if (channels.size() > 1) {
      Pcg32 rng(config_.seed ^ (0x9e3779b97f4a7c15ULL *
                                (static_cast<std::uint64_t>(msg.id) + 1)),
                static_cast<std::uint64_t>(now_));
      selection_->order(*this, msg, v.id, channels, rng);
    }
    for (const ChannelId ch : channels) {
      // The channel's allowed VCs: the run of `wants` in its VC range.
      const PhysChannel& pc = phys(ch);
      const auto in_channel = [&pc](VcId id) {
        return id >= pc.first_vc && id < pc.first_vc + pc.num_vcs;
      };
      auto it = std::find_if(wants.begin(), wants.end(), in_channel);
      for (; it != wants.end() && in_channel(*it); ++it) {
        VcState& w = vcs_[static_cast<std::size_t>(*it)];
        if (w.is_free()) {
          acquire_vc(msg, v, w, key, ctx);
          return true;
        }
      }
    }
    assert(false && "a free allowed VC lies in some candidate channel");
  }

  // Blocked: sleep until a requested VC is released or the held chain
  // shrinks, and watch every requested VC for its release.
  dormant_[static_cast<std::size_t>(head_vc)] = 1;
  for (const VcId want : wants) watched_[static_cast<std::size_t>(want)] = 1;

  // The request set is the fresh VC list. A blocked header whose answer did
  // not change since it was stored (a woken header whose freed VC was taken
  // first, a held-chain shrink its relation ignores, a dense-oracle retry)
  // changes nothing.
  const bool newly_blocked = !msg.blocked;
  if (!newly_blocked && msg.request_set == wants) return false;
  msg.request_set.swap(wants);  // `wants` now holds the old request set
  // Dashed-arc delta. Request sets are tiny (one entry per candidate VC),
  // so the quadratic diff is cheaper than sorting.
  const auto absent = [](const std::vector<VcId>& set, VcId id) {
    return std::find(set.begin(), set.end(), id) == set.end();
  };
  const std::vector<VcId>& old_requests = wants;
  const bool changed =
      newly_blocked ||
      std::any_of(msg.request_set.begin(), msg.request_set.end(),
                  [&](VcId id) { return absent(old_requests, id); }) ||
      std::any_of(old_requests.begin(), old_requests.end(),
                  [&](VcId id) { return absent(msg.request_set, id); });
  if (!changed) return false;  // reordered only: the same dashed arcs
  ++ctx.epoch;
  if (newly_blocked) {
    msg.blocked = true;
    msg.blocked_since = now_;
  }
  if (hooks_.tracer != nullptr) {
    if (newly_blocked) {
      trace_buffered(ctx, key, TraceEventKind::MessageBlocked, msg.id,
                     head_vc, kInvalidVc,
                     static_cast<std::int32_t>(msg.request_set.size()));
    }
    for (const VcId want : msg.request_set) {
      if (absent(old_requests, want)) {
        trace_buffered(ctx, key, TraceEventKind::CwgArcAdded, msg.id, want,
                       head_vc);
      }
    }
    for (const VcId had : old_requests) {
      if (absent(msg.request_set, had)) {
        trace_buffered(ctx, key, TraceEventKind::CwgArcRemoved, msg.id, had,
                       head_vc);
      }
    }
  }
  return false;
}

void Network::wake_requesters(VcId vc) {
  watched_[static_cast<std::size_t>(vc)] = 0;
  const auto router = static_cast<std::size_t>(
      phys(vcs_[static_cast<std::size_t>(vc)].channel).src);
  const auto first = static_cast<std::size_t>(router_vc_begin_[router]);
  const auto last = static_cast<std::size_t>(router_vc_begin_[router + 1]);
  for (std::size_t i = first; i < last; ++i) {
    dormant_[static_cast<std::size_t>(router_vcs_[i])] = 0;
  }
}

void Network::acquire_vc(Message& msg, VcState& from, VcState& target,
                         std::uint64_t trace_key, ShardCtx& ctx) {
  assert(target.is_free() && target.buffer.empty());
  assert(!phys(target.channel).faulted);
  if (hooks_.tracer != nullptr) {
    for (const VcId want : msg.request_set) {
      trace_buffered(ctx, trace_key, TraceEventKind::CwgArcRemoved, msg.id,
                     want, from.id);
    }
    trace_buffered(ctx, trace_key, TraceEventKind::VcAllocated, msg.id,
                   target.id, from.id);
    if (msg.blocked) {
      trace_buffered(ctx, trace_key, TraceEventKind::MessageUnblocked, msg.id,
                     target.id, from.id,
                     static_cast<std::int32_t>(now_ - msg.blocked_since));
    }
  }
  target.owner = msg.id;
  target.route_in = from.id;
  from.route_out = target.id;
  msg.held.push_back(target.id);
  ++ctx.epoch;  // new solid arc; the unblocked message drops its dashed arcs
  // The target channel is out of the header's router, so it belongs to this
  // shard: wake it directly.
  assert(shard_of_channel(target.channel) == ctx.shard);
  ctx.chan_active.insert(target.channel);

  const PhysChannel& pc = phys(target.channel);
  if (pc.kind == ChannelKind::Network) {
    ++msg.hops;
    if (!topo_->hop_is_minimal(topo_->channel(pc.id), msg.dst)) ++msg.misroutes;
  }
  msg.blocked = false;
  msg.request_set.clear();
}

void Network::commit_route() {
  // Injection grants join the active list in source-node order (the one-shard
  // grant sweep's order); each shard's grant list is already node-ordered.
  merge_shards(
      &ShardCtx::grants,
      [this](MessageId id) {
        return messages_[static_cast<std::size_t>(id)].src;
      },
      [this](MessageId id) {
        active_pos_[static_cast<std::size_t>(id)] =
            static_cast<std::int32_t>(active_.size());
        active_.push_back(id);
      });

  // pending_ keeps the walk's order: rotate it by the walk's start (no
  // route worker touches pending_, so its length is the walk's) and drop
  // the headers granted a VC, at the scan positions the shards recorded.
  if (!pending_.empty()) {
    const std::size_t start = static_cast<std::size_t>(now_) % pending_.size();
    std::rotate(pending_.begin(),
                pending_.begin() + static_cast<std::ptrdiff_t>(start),
                pending_.end());
    std::size_t kept = 0;
    std::size_t next = 0;  // first position not yet kept or dropped
    const auto keep_until = [&](std::size_t end) {
      for (; next < end; ++next) pending_[kept++] = pending_[next];
    };
    merge_shards(
        &ShardCtx::routed, [](std::uint32_t at) { return at; },
        [&](std::uint32_t at) {
          keep_until(at);
          next = static_cast<std::size_t>(at) + 1;
        });
    keep_until(pending_.size());
    pending_.resize(kept);
  }
  blocked_count_ = static_cast<int>(pending_.size());

  for (const ShardCtx& ctx : shard_ctx_) counters_.injected += ctx.injected;
  flush_buffered_traces();
}

// --- transmit --------------------------------------------------------------

// Every shard count moves flits through the same three steps: decide_move
// picks a channel's round-robin winner against transmit-start state,
// pop_move takes the flit from the upstream VC, push_move lands it
// downstream. With two or more shards each step is a pass over all of a
// shard's channels, with a pool barrier between passes, so that no FlitFifo
// is popped and pushed at once; the push pass buffers every effect that can
// reach another shard. One shard runs the three steps channel by channel in
// one ascending walk and applies every effect at once. Both reach the same
// moves, because every input of a channel's decision still has its
// transmit-start value when the walk gets there:
//  * a VC is popped during transmit only by its single downstream channel
//    (route_out is unique), at most once; only its own channel pushes into
//    it, and that channel decides before it pushes, so size() plus the
//    popped-this-phase stamp is its transmit-start occupancy;
//  * the upstream side needs no stamp: a flit pushed this phase has
//    arrived == now_, which the decision refuses, and only this channel
//    pops that VC;
//  * ownership and route links change in transmit only when a tail leaves,
//    and a VC whose tail already arrived has no route_in to pull through;
//  * deliver's ejection pops happen before transmit, so both see them.
// A channel woken ahead of the walk's cursor is visited in the same walk,
// finds no move (it had no work when transmit began) and is re-checked next
// cycle, so the wakeup sets stay the supersets the passes keep.

bool Network::decide_move(PhysChannel& pc, ShardMove& move) {
  if (pc.kind == ChannelKind::Injection) {
    for (int j = 0; j < pc.num_vcs; ++j) {
      int idx = pc.rr_cursor + j;
      if (idx >= pc.num_vcs) idx -= pc.num_vcs;
      VcState& w = vcs_[static_cast<std::size_t>(pc.first_vc + idx)];
      if (w.is_free() || w.full_at_transmit_start(now_)) continue;
      const Message& msg = messages_[static_cast<std::size_t>(w.owner)];
      if (msg.flits_sent >= msg.length) continue;
      move.channel = &pc;
      move.dst = &w;
      move.upstream = nullptr;  // the flit is synthesized from the source
      move.rr_index = idx;
      return true;
    }
    return false;
  }
  // Network and ejection channels pull from the feeding upstream VC.
  for (int j = 0; j < pc.num_vcs; ++j) {
    int idx = pc.rr_cursor + j;
    if (idx >= pc.num_vcs) idx -= pc.num_vcs;
    VcState& w = vcs_[static_cast<std::size_t>(pc.first_vc + idx)];
    if (w.is_free() || w.route_in == kInvalidVc ||
        w.full_at_transmit_start(now_)) {
      continue;
    }
    VcState& u = vcs_[static_cast<std::size_t>(w.route_in)];
    if (u.buffer.empty() || u.buffer.front().arrived >= now_) continue;
    move.channel = &pc;
    move.dst = &w;
    move.upstream = &u;
    move.rr_index = idx;
    return true;
  }
  return false;
}

void Network::pop_move(ShardMove& move) {
  if (move.upstream == nullptr) return;
  move.upstream->popped_at = now_;
  move.flit = move.upstream->buffer.pop();
  assert(move.flit.message == move.dst->owner);
}

template <bool kInline>
void Network::push_move(const ShardMove& move, ShardCtx& ctx) {
  PhysChannel& pc = *move.channel;
  VcState& w = *move.dst;
  pc.rr_cursor = move.rr_index + 1 == pc.num_vcs ? 0 : move.rr_index + 1;
  // A head entering a VC joins pending_: now in one walk, in channel-id
  // order at commit with more shards. w is ours, so its dormant byte is too.
  const auto add_pending = [&] {
    if constexpr (kInline) {
      pending_.push_back(w.id);
    } else {
      ShardPendingAdd add;
      add.channel = pc.id;
      add.vc = w.id;
      ctx.pending_adds.push_back(add);
    }
    dormant_[static_cast<std::size_t>(w.id)] = 0;
  };
  // Wakes a channel that may belong to another shard.
  const auto wake = [&](ChannelId ch) {
    if (kInline || shard_of_channel(ch) == ctx.shard) {
      ctx.chan_active.insert(ch);
    } else {
      ctx.wake_outbox.push_back(ch);  // drained into its owner at commit
    }
  };
  const auto emit = [&](TraceEventKind kind, MessageId msg, VcId vc,
                        VcId vc2 = kInvalidVc, std::int32_t arg = 0) {
    if constexpr (kInline) {
      trace(kind, msg, vc, vc2, arg);
    } else {
      trace_buffered(ctx, static_cast<std::uint64_t>(pc.id), kind, msg, vc,
                     vc2, arg);
    }
  };

  if (pc.kind == ChannelKind::Injection) {
    Message& msg = messages_[static_cast<std::size_t>(w.owner)];
    Flit flit;
    flit.message = msg.id;
    flit.seq = msg.flits_sent++;
    flit.arrived = now_;
    w.buffer.push(flit);
    if (flit.is_head()) add_pending();
    if (w.route_out != kInvalidVc) {
      // A routed head is already downstream; its channel leaves this node,
      // so it is ours to wake directly.
      ctx.chan_active.insert(
          vcs_[static_cast<std::size_t>(w.route_out)].channel);
    }
    if (hooks_.heatmap != nullptr) hooks_.heatmap->on_traversal(pc.id, w.id);
    if (hooks_.tracer != nullptr) {
      emit(TraceEventKind::FlitInjected, msg.id, w.id, kInvalidVc, flit.seq);
    }
    return;
  }

  Flit flit = move.flit;
  VcState& u = *move.upstream;
  Message& msg = messages_[static_cast<std::size_t>(flit.message)];
  wake(u.channel);  // freed buffer space upstream
  const bool tail_left_upstream = flit.is_tail_of(msg.length);
  if (tail_left_upstream) {
    assert(!msg.held.empty() && msg.held.front() == u.id);
    msg.held.erase(msg.held.begin());
    if (u.channel >= first_injection_) {
      // A freed injection VC wakes its sleeping source. The VC's node is the
      // router this move's channel leaves, so it is ours in every mode.
      const NodeId node = u.channel - first_injection_;
      assert(shard_of_node(node) == ctx.shard);
      ctx.src_active.insert(node);
    }
    // A blocked header's routing answer may read its held chain, which
    // just shrank, and a released VC may be one a dormant header watches:
    // wake them. Both touch other shards' bytes, so more shards apply them
    // at commit.
    const bool watched = watched_[static_cast<std::size_t>(u.id)] != 0;
    if constexpr (kInline) {
      if (msg.blocked) dormant_[static_cast<std::size_t>(msg.held.back())] = 0;
      if (watched) wake_requesters(u.id);
    } else {
      if (msg.blocked) ctx.shrunk_heads.push_back(msg.held.back());
      if (watched) ctx.released_watched.push_back(u.id);
    }
    u.release();
    w.route_in = kInvalidVc;  // no further flits arrive from upstream
    ++ctx.epoch;  // oldest solid arc retired, VC ownership vacated
  }
  flit.arrived = now_;
  w.buffer.push(flit);
  if (pc.kind == ChannelKind::Ejection) {
    ctx.eject_active.insert(pc.dst);  // the reception interface has work
  } else if (w.route_out != kInvalidVc) {
    wake(vcs_[static_cast<std::size_t>(w.route_out)].channel);
  }
  if (hooks_.heatmap != nullptr) hooks_.heatmap->on_traversal(pc.id, w.id);
  if (hooks_.tracer != nullptr) {
    emit(TraceEventKind::FlitHopped, msg.id, w.id, u.id, flit.seq);
    if (tail_left_upstream) emit(TraceEventKind::VcFreed, msg.id, u.id);
  }
  if (flit.is_head() && pc.kind != ChannelKind::Ejection) add_pending();
}

void Network::transmit_phase() {
  if (shard_ctx_.size() == 1) {
    ShardCtx& ctx = shard_ctx_.front();
    for (std::int32_t ch = ctx.chan_active.first(); ch != -1;
         ch = ctx.chan_active.next_after(ch)) {
      PhysChannel& pc = phys_[static_cast<std::size_t>(ch)];
      ShardMove move;
      if (decide_move(pc, move)) {
        pop_move(move);
        push_move<true>(move, ctx);
      } else if (!transmit_work_possible(pc)) {
        ctx.chan_active.erase(ch);
      }
    }
    return;
  }
  pool_->run([this](std::size_t s) { transmit_decide_shard(shard_ctx_[s]); });
  // Each VC has exactly one downstream mover (route_out is unique), so the
  // pops, possibly of other shards' VCs, never collide.
  pool_->run([this](std::size_t s) {
    for (ShardMove& move : shard_ctx_[s].moves) pop_move(move);
  });
  pool_->run([this](std::size_t s) {
    ShardCtx& ctx = shard_ctx_[s];
    for (const ShardMove& move : ctx.moves) push_move<false>(move, ctx);
  });
  commit_transmit();
}

void Network::transmit_decide_shard(ShardCtx& ctx) {
  ctx.moves.clear();
  ctx.pending_adds.clear();
  ctx.wake_outbox.clear();
  ctx.released_watched.clear();
  ctx.shrunk_heads.clear();
  ctx.trace_buf.clear();
  // Read-only against transmit-start state (the only mutation is
  // descheduling our own channels, which touches no VC). Every decision —
  // including the round-robin winner and the deschedule verdict — is
  // therefore a pure function of committed state, independent of shard count
  // and of other shards' concurrent decisions.
  ShardMove move;
  for (std::int32_t ch = ctx.chan_active.first(); ch != -1;
       ch = ctx.chan_active.next_after(ch)) {
    PhysChannel& pc = phys_[static_cast<std::size_t>(ch)];
    if (decide_move(pc, move)) {
      ctx.moves.push_back(move);
    } else if (!transmit_work_possible(pc)) {
      ctx.chan_active.erase(ch);
    }
  }
}

void Network::commit_transmit() {
  // New unrouted heads join pending_ in channel-id order (the one-shard
  // transmit visit order), after the route phase's rotated rebuild.
  merge_shards(
      &ShardCtx::pending_adds,
      [](const ShardPendingAdd& add) { return add.channel; },
      [this](const ShardPendingAdd& add) { pending_.push_back(add.vc); });

  // Cross-shard wakeups and header wakes: idempotent, order irrelevant.
  for (const ShardCtx& ctx : shard_ctx_) {
    for (const ChannelId ch : ctx.wake_outbox) {
      shard_ctx_[static_cast<std::size_t>(shard_of_channel(ch))]
          .chan_active.insert(ch);
    }
    for (const VcId vc : ctx.released_watched) wake_requesters(vc);
    for (const VcId head : ctx.shrunk_heads) {
      dormant_[static_cast<std::size_t>(head)] = 0;
    }
  }
  flush_buffered_traces();
}

}  // namespace flexnet
