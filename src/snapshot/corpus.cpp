#include "snapshot/corpus.hpp"

#include <algorithm>
#include <cstdio>
#include <stdexcept>
#include <utility>

#include "core/cwg.hpp"
#include "core/knot.hpp"
#include "sim/network.hpp"
#include "traffic/injection.hpp"

namespace flexnet {

DeadlockCorpus::DeadlockCorpus(std::string dir, int limit, const SimConfig& sim,
                               const TrafficConfig& traffic,
                               const WorkloadConfig& workload,
                               const DetectorConfig& detector,
                               const InjectionProcess* injection,
                               const DeadlockDetector* det,
                               const MetricsCollector* metrics)
    : dir_(std::move(dir)),
      limit_(limit),
      sim_(sim),
      traffic_(traffic),
      workload_(workload),
      detector_config_(detector),
      injection_(injection),
      detector_(det),
      metrics_(metrics) {}

void DeadlockCorpus::on_knot(const Network& net, const Cwg& cwg,
                             const Knot& knot, const DeadlockRecord& record) {
  const std::uint64_t hash = canonical_knot_hash(cwg, knot);
  if (!seen_.emplace(hash, record.deadlock_set_size, record.resource_set_size,
                     record.knot_size)
           .second) {
    ++duplicates_;
    return;
  }
  if (limit_ > 0 && captured_ >= limit_) {
    ++dropped_;
    return;
  }

  SnapshotMeta meta;
  meta.kind = SnapshotKind::DeadlockCapture;
  meta.cycle = net.now();
  meta.measuring = measuring_;
  meta.warmup = warmup_;
  meta.measure = measure_;
  meta.sample_every = sample_every_;
  meta.deadlock_set_size = record.deadlock_set_size;
  meta.resource_set_size = record.resource_set_size;
  meta.knot_size = record.knot_size;
  meta.knot_cycle_density = record.knot_cycle_density;
  meta.cwg_hash = hash;

  const Snapshot snap =
      capture_snapshot(meta, sim_, traffic_, detector_config_, workload_, net,
                       *injection_, *detector_, *metrics_);

  // A hash twin of a knot captured earlier this cycle would take its file
  // name; the twin's sizes tell the two apart.
  const auto [named, fresh] = named_at_.try_emplace(hash, net.now());
  const bool twin = !fresh && named->second == net.now();
  named->second = net.now();
  char name[96];
  if (twin) {
    std::snprintf(name, sizeof(name), "knot-%lld-%016llx-%d-%d-%d.snap",
                  static_cast<long long>(net.now()),
                  static_cast<unsigned long long>(hash),
                  record.deadlock_set_size, record.resource_set_size,
                  record.knot_size);
  } else {
    std::snprintf(name, sizeof(name), "knot-%lld-%016llx.snap",
                  static_cast<long long>(net.now()),
                  static_cast<unsigned long long>(hash));
  }
  write_snapshot_file(dir_ + "/" + name, snap);
  ++captured_;
}

ReplayResult replay_capture(const Snapshot& snap) {
  if (snap.meta.kind != SnapshotKind::DeadlockCapture) {
    throw std::runtime_error("replay_capture: snapshot is not a deadlock capture");
  }
  RestoredSim sim = restore_snapshot(snap);

  ReplayResult result;
  const Cwg cwg = Cwg::from_network(*sim.net);
  const std::vector<Knot> knots = find_knots(cwg);
  result.knot_found = !knots.empty();
  if (knots.empty()) {
    result.detail = "no knot found in restored network";
    return result;
  }

  // The capture happened mid-detector-pass: earlier knots in the same pass
  // had their victims removed before this one was dumped, so the restored
  // CWG can contain several knots. Structurally different knots can share a
  // canonical hash (refinement cannot always separate them), so the recorded
  // knot is the first one, in canonical order, whose hash AND recorded sizes
  // match. Failing that, the first hash match (or the first knot) supplies
  // the mismatch detail.
  const Knot* best = nullptr;
  const Knot* first_hash_match = nullptr;
  for (const Knot& knot : knots) {
    if (canonical_knot_hash(cwg, knot) != snap.meta.cwg_hash) continue;
    if (first_hash_match == nullptr) first_hash_match = &knot;
    if (static_cast<int>(knot.deadlock_set.size()) ==
            snap.meta.deadlock_set_size &&
        static_cast<int>(knot.resource_set.size()) ==
            snap.meta.resource_set_size &&
        static_cast<int>(knot.knot_vcs.size()) == snap.meta.knot_size) {
      best = &knot;
      break;
    }
  }
  if (best == nullptr) {
    best = first_hash_match != nullptr ? first_hash_match : &knots.front();
  }
  const std::uint64_t best_hash = canonical_knot_hash(cwg, *best);

  result.deadlock_set_size = static_cast<int>(best->deadlock_set.size());
  result.resource_set_size = static_cast<int>(best->resource_set.size());
  result.knot_size = static_cast<int>(best->knot_vcs.size());
  result.cwg_hash = best_hash;

  if (snap.meta.knot_cycle_density >= 0) {
    result.knot_cycle_density =
        knot_cycle_density(cwg, *best, snap.detector.knot_density_cap).count;
  }

  const bool sizes_match =
      result.deadlock_set_size == snap.meta.deadlock_set_size &&
      result.resource_set_size == snap.meta.resource_set_size &&
      result.knot_size == snap.meta.knot_size;
  const bool hash_match = best_hash == snap.meta.cwg_hash;
  const bool density_match =
      result.knot_cycle_density == snap.meta.knot_cycle_density;
  result.matches = sizes_match && hash_match && density_match;
  if (!result.matches) {
    char buf[320];
    std::snprintf(buf, sizeof(buf),
                  "recorded set/resource/knot=%d/%d/%d hash=%016llx "
                  "density=%lld, replayed %d/%d/%d hash=%016llx density=%lld",
                  snap.meta.deadlock_set_size, snap.meta.resource_set_size,
                  snap.meta.knot_size,
                  static_cast<unsigned long long>(snap.meta.cwg_hash),
                  static_cast<long long>(snap.meta.knot_cycle_density),
                  result.deadlock_set_size, result.resource_set_size,
                  result.knot_size,
                  static_cast<unsigned long long>(best_hash),
                  static_cast<long long>(result.knot_cycle_density));
    result.detail = buf;
  }
  return result;
}

}  // namespace flexnet
