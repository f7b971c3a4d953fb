#include "sim/network.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <string>

#include "obs/obs.hpp"
#include "routing/routing.hpp"
#include "routing/selection.hpp"
#include "telemetry/heatmap.hpp"
#include "telemetry/profiler.hpp"
#include "topo/factory.hpp"
#include "util/binio.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace flexnet {

namespace {
[[noreturn]] void invariant_failure(const std::string& what) {
  throw std::logic_error("Network invariant violated: " + what);
}

[[noreturn]] void snapshot_mismatch(const std::string& what) {
  throw std::runtime_error("snapshot does not match this network: " + what);
}

void save_id_vector(BinWriter& out, const std::vector<VcId>& ids) {
  out.u64(ids.size());
  for (const VcId id : ids) out.i32(id);
}

/// True when `id` indexes a table of `size` entries.
bool id_in_range(std::int64_t id, std::size_t size) {
  return id >= 0 && static_cast<std::uint64_t>(id) < size;
}

/// Reads a VC id list; every id must index the `vc_count`-entry VC table.
void restore_id_vector(BinReader& in, std::vector<VcId>& ids,
                       std::size_t vc_count) {
  const std::uint64_t count = in.u64();
  if (count > vc_count) {
    snapshot_mismatch("VC id list longer than the VC table");
  }
  ids.clear();
  ids.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count; ++i) {
    const VcId id = in.i32();
    if (!id_in_range(id, vc_count)) snapshot_mismatch("VC id out of range");
    ids.push_back(id);
  }
}

/// Reads a link id that may be kInvalidVc (no link).
VcId restore_vc_link(BinReader& in, std::size_t vc_count) {
  const VcId id = in.i32();
  if (id != kInvalidVc && !id_in_range(id, vc_count)) {
    snapshot_mismatch("VC link out of range");
  }
  return id;
}
}  // namespace

void Network::trace(TraceEventKind kind, MessageId msg, VcId vc, VcId vc2,
                    std::int32_t arg, NodeId node) {
  TraceEvent event;
  event.cycle = now_;
  event.kind = kind;
  event.message = msg;
  event.vc = vc;
  event.vc2 = vc2;
  event.arg = arg;
  event.node = (node != kInvalidNode || vc == kInvalidVc)
                   ? node
                   : phys(vcs_[static_cast<std::size_t>(vc)].channel).dst;
  hooks_.tracer->emit(event);
}

Network::Network(const SimConfig& config, NetworkDeps deps)
    : config_(config),
      topo_(deps.topology ? std::move(deps.topology) : make_topology(config)),
      routing_(std::move(deps.routing)),
      selection_(std::move(deps.selection)) {
  config_.validate();
  if (!topo_) throw std::invalid_argument("Network requires a topology");
  if (!routing_ || !selection_) {
    throw std::invalid_argument("Network requires routing and selection policies");
  }

  const NodeId nodes = topo_->num_nodes();

  // Physical channels: the topology's network links keep their ids; one
  // injection and one ejection channel per node follow. A link of width w
  // carries w times the configured VCs (width models bundled physical lanes).
  phys_.reserve(topo_->channels().size() + 2 * static_cast<std::size_t>(nodes));
  for (const ChannelDesc& link : topo_->channels()) {
    PhysChannel pc;
    pc.id = link.id;
    pc.kind = ChannelKind::Network;
    pc.src = link.src;
    pc.dst = link.dst;
    pc.dim = link.dim;
    pc.dir = link.dir;
    pc.is_wrap = link.is_wrap;
    pc.num_vcs = config_.vcs * link.width;
    phys_.push_back(pc);
  }
  first_injection_ = static_cast<ChannelId>(phys_.size());
  for (NodeId node = 0; node < nodes; ++node) {
    PhysChannel pc;
    pc.id = static_cast<ChannelId>(phys_.size());
    pc.kind = ChannelKind::Injection;
    pc.src = node;
    pc.dst = node;
    pc.num_vcs = config_.injection_vcs;
    phys_.push_back(pc);
  }
  first_ejection_ = static_cast<ChannelId>(phys_.size());
  for (NodeId node = 0; node < nodes; ++node) {
    PhysChannel pc;
    pc.id = static_cast<ChannelId>(phys_.size());
    pc.kind = ChannelKind::Ejection;
    pc.src = node;
    pc.dst = node;
    pc.num_vcs = config_.ejection_vcs;
    phys_.push_back(pc);
  }

  std::size_t total_vcs = 0;
  for (PhysChannel& pc : phys_) {
    pc.first_vc = static_cast<VcId>(total_vcs);
    total_vcs += static_cast<std::size_t>(pc.num_vcs);
  }
  vcs_.reserve(total_vcs);
  for (const PhysChannel& pc : phys_) {
    for (int i = 0; i < pc.num_vcs; ++i) {
      VcState vc(config_.buffer_depth);
      vc.id = static_cast<VcId>(vcs_.size());
      vc.channel = pc.id;
      vcs_.push_back(std::move(vc));
    }
  }

  // Each router's header VCs, for the in-place header wakes (§3h): counted
  // into router_vc_begin_[dst], summed to start offsets, filled by advancing
  // each router's offset to its end, then shifted back one slot (no
  // temporary array: a 32k-node network builds it in place).
  router_vc_begin_.assign(static_cast<std::size_t>(nodes) + 1, 0);
  for (const PhysChannel& pc : phys_) {
    if (pc.kind == ChannelKind::Ejection) continue;
    router_vc_begin_[static_cast<std::size_t>(pc.dst)] += pc.num_vcs;
  }
  std::int32_t offset = 0;
  for (std::int32_t& begin : router_vc_begin_) {
    const std::int32_t count = begin;
    begin = offset;
    offset += count;
  }
  router_vcs_.resize(static_cast<std::size_t>(offset));
  for (const PhysChannel& pc : phys_) {
    if (pc.kind == ChannelKind::Ejection) continue;
    for (int i = 0; i < pc.num_vcs; ++i) {
      router_vcs_[static_cast<std::size_t>(
          router_vc_begin_[static_cast<std::size_t>(pc.dst)]++)] =
          pc.first_vc + i;
    }
  }
  std::copy_backward(router_vc_begin_.begin(), router_vc_begin_.end() - 1,
                     router_vc_begin_.end());
  router_vc_begin_.front() = 0;

  source_queues_.resize(static_cast<std::size_t>(nodes));
  stall_since_.assign(static_cast<std::size_t>(nodes), -1);

  set_shards(1);  // one shard, stepped inline on the calling thread

  if (config_.link_fault_fraction > 0.0) inject_link_faults();

  // Last: table-based algorithms build (or load) their routing tables against
  // the fully constructed network.
  routing_->attach(*this);
}

bool Network::network_strongly_connected() const {
  const NodeId nodes = topo_->num_nodes();
  // One forward and one backward reachability sweep from node 0 over the
  // surviving network channels.
  for (const bool forward : {true, false}) {
    std::vector<bool> seen(static_cast<std::size_t>(nodes), false);
    std::vector<NodeId> frontier{0};
    seen[0] = true;
    NodeId reached = 1;
    while (!frontier.empty()) {
      const NodeId at = frontier.back();
      frontier.pop_back();
      for (std::size_t c = 0; c < num_network_channels(); ++c) {
        const PhysChannel& pc = phys_[c];
        if (pc.faulted) continue;
        const NodeId from = forward ? pc.src : pc.dst;
        const NodeId to = forward ? pc.dst : pc.src;
        if (from != at || seen[static_cast<std::size_t>(to)]) continue;
        seen[static_cast<std::size_t>(to)] = true;
        ++reached;
        frontier.push_back(to);
      }
    }
    if (reached != nodes) return false;
  }
  return true;
}

void Network::inject_link_faults() {
  const auto network_channels = num_network_channels();
  const int target = static_cast<int>(config_.link_fault_fraction *
                                      static_cast<double>(network_channels));
  if (target == 0) return;

  std::vector<ChannelId> order(network_channels);
  for (std::size_t i = 0; i < network_channels; ++i) {
    order[i] = static_cast<ChannelId>(i);
  }
  Pcg32 rng(splitmix64(config_.seed), 0x6661756c /* "faul" */);
  for (std::size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.bounded(static_cast<std::uint32_t>(i))]);
  }

  // Greedily fault channels, keeping the survivors strongly connected so
  // every destination stays reachable.
  for (const ChannelId ch : order) {
    if (faulted_ >= target) break;
    PhysChannel& pc = phys_[static_cast<std::size_t>(ch)];
    pc.faulted = true;
    if (network_strongly_connected()) {
      ++faulted_;
    } else {
      pc.faulted = false;
    }
  }
  if (faulted_ < target) {
    throw std::invalid_argument(
        "link_fault_fraction too high: network would disconnect");
  }
}

Network::~Network() = default;

ChannelId Network::injection_channel(NodeId node) const noexcept {
  return first_injection_ + node;
}

ChannelId Network::ejection_channel(NodeId node) const noexcept {
  return first_ejection_ + node;
}

MessageId Network::enqueue_message(NodeId src, NodeId dst, std::int32_t length,
                                   MessageClass cls) {
  if (src == dst) throw std::invalid_argument("messages must leave their source");
  if (length < 1) throw std::invalid_argument("message length must be >= 1");
  const auto id = static_cast<MessageId>(messages_.size());
  Message msg;
  msg.id = id;
  msg.src = src;
  msg.dst = dst;
  msg.length = length;
  msg.cls = cls;
  msg.created = now_;
  messages_.push_back(std::move(msg));
  active_pos_.push_back(-1);
  source_queues_[static_cast<std::size_t>(src)].push_back(id);
  sched_insert_src(src);  // schedule the node's next grant pass
  ++counters_.generated;
  ++counters_.class_generated[class_index(cls)];
  return id;
}

std::int64_t Network::queued_message_count() const noexcept {
  // Each enqueue counts `generated` and each grant out of a source queue
  // counts `injected` (shards add theirs at commit); neither is ever reset.
  return counters_.generated - counters_.injected;
}

double Network::capacity_flits_per_node(double avg_distance) const noexcept {
  return static_cast<double>(num_network_channels()) /
         (static_cast<double>(topo_->num_nodes()) * avg_distance);
}

void Network::step() {
  if (step_dense_) {
    // The dense oracle: schedule every source, reception interface and
    // channel. The live-scan sweeps then visit each exactly once, in id
    // order, as dense loops would (DESIGN.md §3h).
    const NodeId nodes = topo_->num_nodes();
    for (NodeId node = 0; node < nodes; ++node) {
      sched_insert_src(node);
      sched_insert_eject(node);
    }
    for (const PhysChannel& pc : phys_) sched_wake_channel(pc.id);
  }
  {
    ScopedPhase timer(hooks_.profiler, SimPhase::Deliver);
    pool_->run([this](std::size_t s) { deliver_shard(shard_ctx_[s]); });
    commit_deliver();
  }
  {
    ScopedPhase timer(hooks_.profiler, SimPhase::Route);
    pool_->run([this](std::size_t s) { route_shard(shard_ctx_[s]); });
    commit_route();
  }
  {
    ScopedPhase timer(hooks_.profiler, SimPhase::Transmit);
    transmit_phase();
  }
  ++now_;
}

void Network::complete_delivery(Message& msg, VcState& eject_vc) {
  assert(msg.held.size() == 1 && msg.held.front() == eject_vc.id);
  if (watched_[static_cast<std::size_t>(eject_vc.id)] != 0) {
    wake_requesters(eject_vc.id);
  }
  eject_vc.release();
  msg.held.clear();
  ++arc_epoch_;  // message leaves the CWG
  msg.status = MessageStatus::Delivered;
  msg.finished = now_;
  ++counters_.delivered;
  counters_.delivered_latency_sum += msg.finished - msg.created;
  counters_.delivered_hops_sum += msg.hops;
  ++counters_.class_delivered[class_index(msg.cls)];
  counters_.class_latency_sum[class_index(msg.cls)] += msg.finished - msg.created;
  if (hooks_.obs != nullptr) {
    hooks_.obs->on_delivery(msg.finished - msg.created, msg.cls);
  }
  if (hooks_.tracer != nullptr) {
    trace(TraceEventKind::VcFreed, msg.id, eject_vc.id);
    trace(TraceEventKind::MessageDelivered, msg.id, eject_vc.id, kInvalidVc,
          static_cast<std::int32_t>(msg.finished - msg.created));
  }
  deactivate(msg);
}

void Network::deactivate(Message& msg) {
  const auto pos = active_pos_[static_cast<std::size_t>(msg.id)];
  assert(pos >= 0 && active_[static_cast<std::size_t>(pos)] == msg.id);
  const MessageId moved = active_.back();
  active_[static_cast<std::size_t>(pos)] = moved;
  active_pos_[static_cast<std::size_t>(moved)] = pos;
  active_.pop_back();
  active_pos_[static_cast<std::size_t>(msg.id)] = -1;
}

bool Network::transmit_work_possible(const PhysChannel& pc) const {
  if (pc.kind == ChannelKind::Injection) {
    for (int i = 0; i < pc.num_vcs; ++i) {
      const VcState& w = vcs_[static_cast<std::size_t>(pc.first_vc + i)];
      if (w.is_free() || w.buffer.full()) continue;
      if (messages_[static_cast<std::size_t>(w.owner)].flits_sent <
          messages_[static_cast<std::size_t>(w.owner)].length) {
        return true;
      }
    }
    return false;
  }
  for (int i = 0; i < pc.num_vcs; ++i) {
    const VcState& w = vcs_[static_cast<std::size_t>(pc.first_vc + i)];
    if (w.is_free() || w.route_in == kInvalidVc || w.buffer.full()) continue;
    if (!vcs_[static_cast<std::size_t>(w.route_in)].buffer.empty()) return true;
  }
  return false;
}

void Network::remove_message(MessageId id) {
  Message& msg = messages_[static_cast<std::size_t>(id)];
  if (msg.status != MessageStatus::InFlight) {
    throw std::invalid_argument("remove_message: message is not in flight");
  }
  if (hooks_.tracer != nullptr) {
    for (const VcId want : msg.request_set) {
      trace(TraceEventKind::CwgArcRemoved, msg.id, want,
            msg.held.empty() ? kInvalidVc : msg.held.back());
    }
    for (const VcId held : msg.held) {
      trace(TraceEventKind::VcFreed, msg.id, held);
    }
    trace(TraceEventKind::MessageRemoved, msg.id,
          msg.held.empty() ? kInvalidVc : msg.held.back(), kInvalidVc,
          static_cast<std::int32_t>(msg.hops));
  }
  for (const VcId held : msg.held) {
    VcState& vc = vcs_[static_cast<std::size_t>(held)];
    assert(vc.owner == msg.id);
    // Wake the freed VC's channel so the event-driven sweep revisits it once
    // another message claims the slot: recovery happens between steps, and a
    // wedged (descheduled) channel must not stay silent while survivors
    // drain through it.
    sched_wake_channel(vc.channel);
    if (watched_[static_cast<std::size_t>(held)] != 0) wake_requesters(held);
    // A freed injection VC wakes its sleeping source.
    const PhysChannel& pc = phys_[static_cast<std::size_t>(vc.channel)];
    if (pc.kind == ChannelKind::Injection) sched_insert_src(pc.src);
    vc.buffer.clear();
    vc.release();
  }
  std::erase_if(pending_, [this](VcId v) {
    return vcs_[static_cast<std::size_t>(v)].is_free();
  });
  msg.held.clear();
  msg.request_set.clear();
  msg.blocked = false;
  ++arc_epoch_;  // message and all its arcs leave the CWG
  msg.status = MessageStatus::Recovered;
  msg.finished = now_;
  ++counters_.recovered;
  ++counters_.class_recovered[class_index(msg.cls)];
  deactivate(msg);
}

bool Network::message_immobile(MessageId id) const {
  const Message& msg = message(id);
  if (msg.status != MessageStatus::InFlight || !msg.blocked) return false;
  // Unsent flits could still enter the injection VC.
  if (msg.flits_sent < msg.length &&
      !vc(msg.held.front()).buffer.full()) {
    return false;
  }
  // Any routed hop with a flit to send and downstream space can still move.
  for (const VcId held : msg.held) {
    const VcState& u = vc(held);
    if (u.route_out == kInvalidVc) continue;  // the blocked header
    if (!u.buffer.empty() && !vc(u.route_out).buffer.full()) return false;
  }
  return true;
}

void Network::check_invariants() const {
  // Per-VC exclusivity and linkage.
  for (const VcState& vc : vcs_) {
    if (vc.is_free()) {
      if (!vc.buffer.empty()) invariant_failure("free VC with buffered flits");
      if (vc.route_out != kInvalidVc || vc.route_in != kInvalidVc) {
        invariant_failure("free VC with route state");
      }
      continue;
    }
    const Message& owner = message(vc.owner);
    if (owner.status != MessageStatus::InFlight) {
      invariant_failure("VC owned by a finished message");
    }
    for (int i = 0; i < vc.buffer.size(); ++i) {
      if (vc.buffer.at(i).message != vc.owner) {
        invariant_failure("buffered flit does not belong to the VC owner");
      }
    }
    if (std::find(owner.held.begin(), owner.held.end(), vc.id) ==
        owner.held.end()) {
      invariant_failure("owned VC missing from the owner's held chain");
    }
  }

  // Per-message chain structure and flit conservation.
  for (const MessageId id : active_) {
    const Message& msg = message(id);
    if (msg.held.empty()) invariant_failure("in-flight message holds no VC");
    int buffered = 0;
    for (std::size_t i = 0; i < msg.held.size(); ++i) {
      const VcState& vc = vcs_[static_cast<std::size_t>(msg.held[i])];
      if (vc.owner != msg.id) invariant_failure("held VC not owned");
      buffered += vc.buffer.size();
      const bool last = (i + 1 == msg.held.size());
      if (last) {
        if (vc.route_out != kInvalidVc) {
          invariant_failure("newest held VC already routed");
        }
      } else if (vc.route_out != msg.held[i + 1]) {
        invariant_failure("held chain route_out linkage broken");
      }
      if (i > 0 && vc.route_in != msg.held[i - 1]) {
        invariant_failure("held chain route_in linkage broken");
      }
    }
    if (buffered != msg.flits_sent - msg.flits_delivered) {
      invariant_failure("flit conservation broken");
    }
  }

  std::int64_t queued = 0;
  for (const auto& queue : source_queues_) {
    queued += static_cast<std::int64_t>(queue.size());
  }
  if (queued != queued_message_count()) {
    invariant_failure("queued message count differs from the source queues");
  }

  // Pending entries are exactly the owned, unrouted heads.
  std::vector<ChannelId> channels;
  std::vector<VcId> wants;
  for (const VcId v : pending_) {
    const VcState& vc = vcs_[static_cast<std::size_t>(v)];
    if (vc.is_free() || vc.route_out != kInvalidVc) {
      invariant_failure("pending VC is free or already routed");
    }
    if (vc.buffer.empty() || !vc.buffer.front().is_head()) {
      invariant_failure("pending VC front is not a header flit");
    }
    // A dormant header is skipped by the route walk, which is sound only
    // while a retry would fail as a no-op (§3h): the header is blocked on
    // exactly the VCs a fresh routing answer gives, and none of them is free.
    if (dormant_[static_cast<std::size_t>(v)] == 0) continue;
    const Message& msg = message(vc.owner);
    if (!msg.blocked) invariant_failure("dormant header is not blocked");
    route_candidates(msg, vc, channels, wants);
    if (msg.request_set != wants) {
      invariant_failure("dormant header's request set is not its routing "
                        "answer");
    }
    for (const VcId want : wants) {
      if (vcs_[static_cast<std::size_t>(want)].is_free()) {
        invariant_failure("dormant header requests a free VC");
      }
      if (watched_[static_cast<std::size_t>(want)] == 0) {
        invariant_failure("dormant header's request is unwatched");
      }
    }
  }

  // Active-set coverage: the event-driven core must never deschedule a
  // component that still has work. All three sets are supersets (stale
  // entries self-erase on their next visit).
  const NodeId nodes = topo_->num_nodes();
  for (NodeId node = 0; node < nodes; ++node) {
    const bool queued = !source_queues_[static_cast<std::size_t>(node)].empty();
    const Cycle since = stall_since_[static_cast<std::size_t>(node)];
    const PhysChannel& inj =
        phys_[static_cast<std::size_t>(injection_channel(node))];
    bool vc_free = false;
    for (int i = 0; i < inj.num_vcs && !vc_free; ++i) {
      vc_free = vcs_[static_cast<std::size_t>(inj.first_vc + i)].is_free();
    }
    if (queued && vc_free && !src_scheduled(node)) {
      invariant_failure("queued message and free injection VC on a sleeping "
                        "source");
    }
    // The heatmap's stall count is exact only if every unvisited queued
    // node's stalls sit in an open span.
    if (queued && since < 0 && !src_scheduled(node)) {
      invariant_failure("sleeping source has no open stall span");
    }
    if (since >= 0 && (!queued || since > now_)) {
      invariant_failure("stall span open on an empty queue or in the future");
    }
    const PhysChannel& ej =
        phys_[static_cast<std::size_t>(ejection_channel(node))];
    for (int i = 0; i < ej.num_vcs; ++i) {
      if (!vcs_[static_cast<std::size_t>(ej.first_vc + i)].buffer.empty() &&
          !eject_scheduled(node)) {
        invariant_failure("buffered ejection flit on a descheduled node");
      }
    }
  }
  for (const PhysChannel& pc : phys_) {
    if (transmit_work_possible(pc) && !channel_scheduled(pc.id)) {
      invariant_failure("transmittable work on a descheduled channel");
    }
  }
  // Per-shard sets must hold only components the shard owns.
  for (const ShardCtx& ctx : shard_ctx_) {
    for (std::int32_t n = ctx.src_active.first(); n != -1;
         n = ctx.src_active.next_after(n)) {
      if (shard_of_node(n) != ctx.shard) {
        invariant_failure("source node scheduled on a foreign shard");
      }
    }
    for (std::int32_t n = ctx.eject_active.first(); n != -1;
         n = ctx.eject_active.next_after(n)) {
      if (shard_of_node(n) != ctx.shard) {
        invariant_failure("ejection node scheduled on a foreign shard");
      }
    }
    for (std::int32_t ch = ctx.chan_active.first(); ch != -1;
         ch = ctx.chan_active.next_after(ch)) {
      if (shard_of_channel(ch) != ctx.shard) {
        invariant_failure("channel scheduled on a foreign shard");
      }
    }
  }
}

void Network::rebuild_active_sets() {
  for (ShardCtx& ctx : shard_ctx_) {
    ctx.src_active.clear();
    ctx.eject_active.clear();
    ctx.chan_active.clear();
  }
  const NodeId nodes = topo_->num_nodes();
  for (NodeId node = 0; node < nodes; ++node) {
    if (!source_queues_[static_cast<std::size_t>(node)].empty()) {
      sched_insert_src(node);
    }
    const PhysChannel& ej =
        phys_[static_cast<std::size_t>(ejection_channel(node))];
    for (int i = 0; i < ej.num_vcs; ++i) {
      if (!vcs_[static_cast<std::size_t>(ej.first_vc + i)].buffer.empty()) {
        sched_insert_eject(node);
        break;
      }
    }
  }
  for (const PhysChannel& pc : phys_) {
    if (transmit_work_possible(pc)) sched_wake_channel(pc.id);
  }
}

void Network::reset_dormancy() {
  dormant_.assign(vcs_.size(), 0);
  watched_.assign(vcs_.size(), 0);
}

void Network::settle_stall_spans(Cycle restart) noexcept {
  for (std::size_t node = 0; node < stall_since_.size(); ++node) {
    Cycle& since = stall_since_[node];
    if (since < 0) continue;
    if (hooks_.heatmap != nullptr) {
      hooks_.heatmap->on_injection_stall(static_cast<NodeId>(node),
                                         now_ - since);
    }
    since = restart;
  }
}

void Network::install_hooks(const NetworkHooks& hooks) noexcept {
  if (hooks.heatmap != hooks_.heatmap) settle_stall_spans(now_);
  hooks_ = hooks;
}

void Network::save_counters(BinWriter& out, const Counters& c) {
  out.i64(c.generated);
  out.i64(c.injected);
  out.i64(c.delivered);
  out.i64(c.recovered);
  out.i64(c.flits_delivered);
  out.i64(c.delivered_latency_sum);
  out.i64(c.delivered_hops_sum);
  for (std::size_t k = 0; k < kNumMessageClasses; ++k) {
    out.i64(c.class_generated[k]);
    out.i64(c.class_delivered[k]);
    out.i64(c.class_recovered[k]);
    out.i64(c.class_latency_sum[k]);
  }
}

void Network::restore_counters(BinReader& in, Counters& c,
                               std::uint32_t version) {
  c.generated = in.i64();
  c.injected = in.i64();
  c.delivered = in.i64();
  c.recovered = in.i64();
  c.flits_delivered = in.i64();
  c.delivered_latency_sum = in.i64();
  c.delivered_hops_sum = in.i64();
  c.class_generated.fill(0);
  c.class_delivered.fill(0);
  c.class_recovered.fill(0);
  c.class_latency_sum.fill(0);
  if (version >= 3) {
    for (std::size_t k = 0; k < kNumMessageClasses; ++k) {
      c.class_generated[k] = in.i64();
      c.class_delivered[k] = in.i64();
      c.class_recovered[k] = in.i64();
      c.class_latency_sum[k] = in.i64();
    }
  }
}

void Network::save_state(BinWriter& out) const {
  out.i64(now_);
  out.i32(blocked_count_);
  out.i32(faulted_);
  save_counters(out, counters_);

  out.u64(phys_.size());
  for (const PhysChannel& pc : phys_) {
    out.i32(pc.rr_cursor);
    out.u8(pc.faulted ? 1 : 0);
  }

  out.u64(vcs_.size());
  for (const VcState& vc : vcs_) {
    out.i64(vc.owner);
    out.i32(vc.route_out);
    out.i32(vc.route_in);
    vc.buffer.save_state(out);
  }

  out.u64(messages_.size());
  for (const Message& msg : messages_) {
    out.i32(msg.src);
    out.i32(msg.dst);
    out.i32(msg.length);
    out.i64(msg.created);
    out.i64(msg.injected);
    out.i64(msg.finished);
    out.u8(static_cast<std::uint8_t>(msg.status));
    out.i32(msg.flits_sent);
    out.i32(msg.flits_delivered);
    out.i32(msg.hops);
    out.i32(msg.misroutes);
    out.u8(msg.blocked ? 1 : 0);
    out.i64(msg.blocked_since);
    out.u8(static_cast<std::uint8_t>(msg.cls));
    save_id_vector(out, msg.held);
    save_id_vector(out, msg.request_set);
  }

  out.u64(source_queues_.size());
  for (const auto& queue : source_queues_) {
    out.u64(queue.size());
    for (const MessageId id : queue) out.i64(id);
  }

  out.u64(active_.size());
  for (const MessageId id : active_) out.i64(id);

  out.u64(pending_.size());
  for (const VcId id : pending_) out.i32(id);
}

void Network::restore_state(BinReader& in, std::uint32_t version) {
  // Stall spans count against the pre-restore clock: credit and close them
  // (rebuild_active_sets below schedules every queued node again).
  settle_stall_spans(-1);
  now_ = in.i64();
  blocked_count_ = in.i32();
  faulted_ = in.i32();
  restore_counters(in, counters_, version);
  if (version < 4) {
    // v1-v3 carried the removed network generator's three words.
    for (int i = 0; i < 3; ++i) (void)in.u64();
  }

  if (in.u64() != phys_.size()) snapshot_mismatch("physical channel count");
  for (PhysChannel& pc : phys_) {
    pc.rr_cursor = in.i32();
    if (pc.rr_cursor < 0 || pc.rr_cursor >= pc.num_vcs) {
      snapshot_mismatch("arbitration cursor out of range");
    }
    pc.faulted = in.u8() != 0;
  }

  if (in.u64() != vcs_.size()) snapshot_mismatch("virtual channel count");
  for (VcState& vc : vcs_) {
    vc.popped_at = -1;  // now_ may have moved backwards: no stale stamp
    vc.owner = in.i64();  // range-checked once the message table is read
    vc.route_out = restore_vc_link(in, vcs_.size());
    vc.route_in = restore_vc_link(in, vcs_.size());
    vc.buffer.restore_state(in);
  }

  const std::uint64_t num_messages = in.u64();
  // Each message takes dozens of bytes; a larger count is corrupt, and
  // reserving it would over-allocate.
  if (num_messages > in.remaining()) snapshot_mismatch("message count");
  messages_.clear();
  messages_.reserve(static_cast<std::size_t>(num_messages));
  for (std::uint64_t i = 0; i < num_messages; ++i) {
    Message msg;
    msg.id = static_cast<MessageId>(i);
    msg.src = in.i32();
    msg.dst = in.i32();
    if (!id_in_range(msg.src, source_queues_.size()) ||
        !id_in_range(msg.dst, source_queues_.size())) {
      snapshot_mismatch("message endpoint out of range");
    }
    msg.length = in.i32();
    msg.created = in.i64();
    msg.injected = in.i64();
    msg.finished = in.i64();
    msg.status = static_cast<MessageStatus>(in.u8());
    msg.flits_sent = in.i32();
    msg.flits_delivered = in.i32();
    msg.hops = in.i32();
    msg.misroutes = in.i32();
    msg.blocked = in.u8() != 0;
    msg.blocked_since = in.i64();
    msg.cls = version >= 3 ? message_class_from_index(in.u8())
                           : MessageClass::Bulk;
    restore_id_vector(in, msg.held, vcs_.size());
    restore_id_vector(in, msg.request_set, vcs_.size());
    messages_.push_back(std::move(msg));
  }
  for (const VcState& vc : vcs_) {
    if (vc.owner != kInvalidMessage && !id_in_range(vc.owner, num_messages)) {
      snapshot_mismatch("VC owner out of range");
    }
  }

  if (in.u64() != source_queues_.size()) snapshot_mismatch("node count");
  for (auto& queue : source_queues_) {
    const std::uint64_t len = in.u64();
    if (len > num_messages) snapshot_mismatch("source queue length");
    queue.clear();
    for (std::uint64_t i = 0; i < len; ++i) {
      const MessageId id = in.i64();
      if (!id_in_range(id, num_messages)) {
        snapshot_mismatch("queued message id out of range");
      }
      queue.push_back(id);
    }
  }

  const std::uint64_t num_active = in.u64();
  if (num_active > num_messages) snapshot_mismatch("active message count");
  active_.clear();
  active_.reserve(static_cast<std::size_t>(num_active));
  active_pos_.assign(static_cast<std::size_t>(num_messages), -1);
  for (std::uint64_t i = 0; i < num_active; ++i) {
    const MessageId id = in.i64();
    if (!id_in_range(id, num_messages)) {
      snapshot_mismatch("active message id out of range");
    }
    active_pos_[static_cast<std::size_t>(id)] = static_cast<std::int32_t>(i);
    active_.push_back(id);
  }

  restore_id_vector(in, pending_, vcs_.size());

  // The epoch is deliberately NOT serialized (it is a process-local cache
  // key, not simulation state); bumping it here invalidates any detector
  // verdict cached against the pre-restore graph. Header dormancy and the
  // active sets are likewise process-local: wake every header, and
  // recompute the sets from the restored buffers and queues.
  ++arc_epoch_;
  reset_dormancy();
  rebuild_active_sets();

  check_invariants();
}

}  // namespace flexnet
