#include "core/detector.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/recovery.hpp"
#include "sim/network.hpp"
#include "telemetry/profiler.hpp"
#include "trace/forensics.hpp"
#include "util/binio.hpp"

namespace flexnet {

DeadlockDetector::DeadlockDetector(const DetectorConfig& config,
                                   std::uint64_t seed)
    : config_(config), rng_(splitmix64(seed), 0x64657465 /* "dete" */) {}

int DeadlockDetector::tick(Network& net) {
  if (config_.interval <= 0 || net.now() % config_.interval != 0) return 0;
  return run_detection(net);
}

int DeadlockDetector::run_detection(Network& net) {
  ScopedPhase detector_timer(profiler_, SimPhase::Detector);
  ++invocations_;  // counted even for skipped passes: the cycle-sampling
                   // schedule and telemetry invocation counts must not depend
                   // on which pipeline ran

  if (config_.livelock_hop_limit > 0) {
    // Collect first: remove_message mutates the active list. (A removal
    // bumps the arc epoch, so gating below cannot reuse a stale verdict.)
    livelock_scratch_.clear();
    for (const MessageId id : net.active_messages()) {
      if (net.message(id).hops >= config_.livelock_hop_limit) {
        livelock_scratch_.push_back(id);
      }
    }
    if (!livelock_scratch_.empty()) {
      ScopedPhase recovery_timer(profiler_, SimPhase::Recovery);
      for (const MessageId id : livelock_scratch_) {
        net.remove_message(id);
        ++livelocks_;
      }
    }
  }

  const bool sample_due = config_.count_total_cycles &&
                          (invocations_ % config_.cycle_sample_every) == 0;

  if (!config_.full_rebuild && !sample_due) {
    if (cache_valid_ && cached_net_ == &net &&
        cached_epoch_ == net.arc_epoch()) {
      // No arc changed since the last pass, so the CWG — and therefore the
      // knot set, a pure function of it — is exactly what we found then.
      // Quiescence, victim choice, and record/hook emission still rerun:
      // buffer occupancy (message_immobile) can change without arc changes,
      // and the paper's methodology re-reports a persisting knot each pass.
      ++skipped_passes_;
      if (pressure_.valid) pressure_.computed_at = net.now();
      if (cached_knots_.empty()) return 0;
      return process_knots(net, cwg_);
    }
    if (net.blocked_message_count() == 0) {
      // No blocked messages means no dashed arcs; the CWG is a disjoint
      // union of ownership paths and cannot contain a cycle, let alone a
      // knot. Skip the rebuild entirely and cache the knot-free verdict.
      cached_knots_.clear();
      cached_density_.clear();
      cached_net_ = &net;
      cached_epoch_ = net.arc_epoch();
      cache_valid_ = true;
      ++skipped_passes_;
      pressure_ = PressureStats{net.now(), 0, 0, 0, true};
      return 0;
    }
  }

  cwg_.rebuild_from_network(net);
  const Cwg& cwg = cwg_;

  if (sample_due) {
    const CycleEnumeration total =
        enumerate_simple_cycles(cwg.graph(), config_.total_cycle_cap);
    CycleSample sample;
    sample.at = net.now();
    sample.cycles = total.count;
    sample.capped = total.capped;
    sample.blocked_messages = cwg.num_blocked_messages();
    sample.in_network_messages = static_cast<int>(net.active_messages().size());
    cycle_samples_.push_back(sample);
  }

  if (config_.full_rebuild) {
    cached_knots_ = find_knots(cwg);
  } else {
    // Solid arcs form vertex-disjoint paths, so every cycle holds a dashed
    // arc, and dashed arcs leave only blocked tips: every knot lies in what
    // the tips reach. That set has no arc leaving it, so the components,
    // terminality and self-loops found there are the whole graph's.
    tips_.clear();
    for (const CwgMessage& msg : cwg.messages()) {
      if (!msg.requests.empty()) tips_.push_back(msg.held.back());
    }
    strongly_connected_components(cwg.graph(), tips_, scc_, scc_scratch_);
    cached_knots_ = knots_from_scc(cwg.graph(), scc_);
    characterize_knots(cwg, cached_knots_);
    const auto largest = std::max_element(scc_.size.begin(), scc_.size.end());
    pressure_ = PressureStats{
        net.now(), static_cast<std::int64_t>(scc_.reached.size()),
        largest == scc_.size.end() ? 0 : *largest,
        static_cast<std::int64_t>(cached_knots_.size()), true};
  }
  cached_density_.assign(cached_knots_.size(), CachedDensity{});
  cached_net_ = &net;
  cached_epoch_ = net.arc_epoch();
  cache_valid_ = !config_.full_rebuild;
  return process_knots(net, cwg);
}

int DeadlockDetector::process_knots(Network& net, const Cwg& cwg) {
  int confirmed = 0;
  for (std::size_t ki = 0; ki < cached_knots_.size(); ++ki) {
    const Knot& knot = cached_knots_[ki];
    if (config_.require_quiescence) {
      const bool quiescent =
          std::all_of(knot.deadlock_set.begin(), knot.deadlock_set.end(),
                      [&](MessageId id) { return net.message_immobile(id); });
      if (!quiescent) {
        ++transient_knots_;  // may dissolve by compaction; recheck next pass
        continue;
      }
    }
    ++confirmed;
    ++total_deadlocks_;
    for (const MessageId id : knot.deadlock_set) {
      ++class_participation_[class_index(net.message(id).cls)];
    }
    DeadlockRecord record;
    record.detected_at = net.now();
    record.deadlock_set_size = static_cast<int>(knot.deadlock_set.size());
    record.resource_set_size = static_cast<int>(knot.resource_set.size());
    record.knot_size = static_cast<int>(knot.knot_vcs.size());
    record.dependent_count = static_cast<int>(knot.dependent_messages.size());
    if (config_.measure_knot_density) {
      // Measured at most once per cached knot: within an epoch the knot
      // subgraph is frozen, so the enumeration result cannot change.
      CachedDensity& cache = cached_density_[ki];
      if (!cache.measured) {
        const CycleEnumeration density =
            knot_cycle_density(cwg, knot, config_.knot_density_cap);
        cache.measured = true;
        cache.count = density.count;
        cache.capped = density.capped;
      }
      record.knot_cycle_density = cache.count;
      record.density_capped = cache.capped;
    }
    if (config_.recovery != RecoveryKind::None) {
      record.victim =
          choose_victim(net, knot.deadlock_set, config_.recovery, rng_);
    }
    if (Tracer* tracer = net.hooks().tracer) {
      TraceEvent event;
      event.cycle = net.now();
      event.kind = TraceEventKind::DeadlockDetected;
      event.vc = knot.knot_vcs.front();
      event.node = net.phys(net.vc(knot.knot_vcs.front()).channel).dst;
      event.arg = record.deadlock_set_size;
      tracer->emit(event);
      if (record.victim != kInvalidMessage) {
        event.kind = TraceEventKind::DeadlockRecovered;
        event.message = record.victim;
        tracer->emit(event);
      }
    }
    if (forensics_ != nullptr) {
      forensics_->on_deadlock(net, cwg, knot, record.victim,
                              record.knot_cycle_density);
    }
    if (capture_ != nullptr) {
      capture_->on_knot(net, cwg, knot, record);
    }
    if (record.victim != kInvalidMessage) {
      ScopedPhase recovery_timer(profiler_, SimPhase::Recovery);
      net.remove_message(record.victim);
    }
    if (config_.keep_records) records_.push_back(record);
  }
  return confirmed;
}

void DeadlockDetector::save_state(BinWriter& out) const {
  const Pcg32::State s = rng_.save();
  out.u64(s.state);
  out.u64(s.inc);
  out.u64(s.draws);
  out.i64(total_deadlocks_);
  out.i64(transient_knots_);
  out.i64(livelocks_);
  out.i64(invocations_);
  out.u64(records_.size());
  for (const DeadlockRecord& r : records_) {
    out.i64(r.detected_at);
    out.i32(r.deadlock_set_size);
    out.i32(r.resource_set_size);
    out.i32(r.knot_size);
    out.i32(r.dependent_count);
    out.i64(r.knot_cycle_density);
    out.u8(r.density_capped ? 1 : 0);
    out.i64(r.victim);
  }
  out.u64(cycle_samples_.size());
  for (const CycleSample& s2 : cycle_samples_) {
    out.i64(s2.at);
    out.i64(s2.cycles);
    out.u8(s2.capped ? 1 : 0);
    out.i32(s2.blocked_messages);
    out.i32(s2.in_network_messages);
  }
  for (const std::int64_t n : class_participation_) out.i64(n);
}

void DeadlockDetector::restore_state(BinReader& in, std::uint32_t version) {
  // Scratch/cache state is intentionally not part of the snapshot format;
  // a restored detector simply pays one full pass to repopulate it.
  cache_valid_ = false;
  cached_net_ = nullptr;
  cached_knots_.clear();
  cached_density_.clear();
  pressure_ = PressureStats{};
  Pcg32::State s;
  s.state = in.u64();
  s.inc = in.u64();
  s.draws = in.u64();
  rng_.restore(s);
  total_deadlocks_ = in.i64();
  transient_knots_ = in.i64();
  livelocks_ = in.i64();
  invocations_ = in.i64();
  // Each record and sample takes dozens of bytes; a count larger than the
  // remaining payload is corrupt, and reserving it would over-allocate.
  records_.clear();
  const std::uint64_t nrecords = in.u64();
  if (nrecords > in.remaining()) {
    throw std::runtime_error("detector state: record count exceeds payload");
  }
  records_.reserve(static_cast<std::size_t>(nrecords));
  for (std::uint64_t i = 0; i < nrecords; ++i) {
    DeadlockRecord r;
    r.detected_at = in.i64();
    r.deadlock_set_size = in.i32();
    r.resource_set_size = in.i32();
    r.knot_size = in.i32();
    r.dependent_count = in.i32();
    r.knot_cycle_density = in.i64();
    r.density_capped = in.u8() != 0;
    r.victim = static_cast<MessageId>(in.i64());
    records_.push_back(r);
  }
  cycle_samples_.clear();
  const std::uint64_t nsamples = in.u64();
  if (nsamples > in.remaining()) {
    throw std::runtime_error("detector state: sample count exceeds payload");
  }
  cycle_samples_.reserve(static_cast<std::size_t>(nsamples));
  for (std::uint64_t i = 0; i < nsamples; ++i) {
    CycleSample s2;
    s2.at = in.i64();
    s2.cycles = in.i64();
    s2.capped = in.u8() != 0;
    s2.blocked_messages = in.i32();
    s2.in_network_messages = in.i32();
    cycle_samples_.push_back(s2);
  }
  class_participation_.fill(0);
  if (version >= 3) {
    for (std::int64_t& n : class_participation_) n = in.i64();
  }
}

void DeadlockDetector::reset_statistics() {
  records_.clear();
  cycle_samples_.clear();
  total_deadlocks_ = 0;
  transient_knots_ = 0;
  livelocks_ = 0;
  class_participation_.fill(0);
}

}  // namespace flexnet
