// Replays the committed deadlock corpus (tests/corpus/*.snap): every capture
// must decode, restore, and re-produce the recorded knot — same canonical
// CWG hash, same deadlock/resource set sizes, same knot cycle density — when
// detection is re-run on the restored network. This pins the snapshot format
// AND the detector's verdict against regressions. The count-only density
// (series-reduced) must equal the plain search's on every corpus knot and on
// every knot of a saturated 16-ary TFAR run. A hand-built pair of
// hash-colliding knots pins how replay picks the recorded one and how the
// corpus keeps both.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "core/cwg.hpp"
#include "core/cycles.hpp"
#include "core/detector.hpp"
#include "core/knot.hpp"
#include "exp/experiment.hpp"
#include "metrics/metrics.hpp"
#include "sim/network.hpp"
#include "snapshot/corpus.hpp"
#include "snapshot/snapshot.hpp"

#ifndef FLEXNET_CORPUS_DIR
#error "FLEXNET_CORPUS_DIR must point at the committed tests/corpus directory"
#endif

namespace flexnet {
namespace {

std::vector<std::string> corpus_files() {
  std::vector<std::string> files;
  for (const auto& entry :
       std::filesystem::directory_iterator(FLEXNET_CORPUS_DIR)) {
    if (entry.path().extension() == ".snap") {
      files.push_back(entry.path().string());
    }
  }
  std::sort(files.begin(), files.end());
  return files;
}

TEST(CommittedCorpus, HoldsAtLeastThreeCaptures) {
  EXPECT_GE(corpus_files().size(), 3u);
}

TEST(CommittedCorpus, EveryCaptureReplaysWithMatchingVerdict) {
  const std::vector<std::string> files = corpus_files();
  ASSERT_FALSE(files.empty());
  for (const std::string& path : files) {
    SCOPED_TRACE(path);
    const Snapshot snap = read_snapshot_file(path);
    EXPECT_EQ(snap.meta.kind, SnapshotKind::DeadlockCapture);
    EXPECT_GT(snap.meta.deadlock_set_size, 0);
    EXPECT_GE(snap.meta.resource_set_size, snap.meta.knot_size);
    const ReplayResult replay = replay_capture(snap);
    EXPECT_TRUE(replay.knot_found) << "no knot in restored network";
    EXPECT_TRUE(replay.matches) << replay.detail;
    EXPECT_EQ(replay.cwg_hash, snap.meta.cwg_hash);
    EXPECT_EQ(replay.deadlock_set_size, snap.meta.deadlock_set_size);
    EXPECT_EQ(replay.resource_set_size, snap.meta.resource_set_size);
    EXPECT_GE(snap.meta.knot_cycle_density, 1) << "capture recorded no density";
    EXPECT_EQ(replay.knot_cycle_density, snap.meta.knot_cycle_density);
  }
}

/// The plain search's density: a call that materializes cycles (here one)
/// runs Johnson's search on the knot as it is, without the series reduction
/// a count-only call applies first.
CycleEnumeration plain_density(const Cwg& cwg, const Knot& knot,
                               std::int64_t cap) {
  return knot_cycle_density(cwg, knot, cap, 1);
}

TEST(CommittedCorpus, ReducedDensityMatchesPlainSearch) {
  const std::vector<std::string> files = corpus_files();
  ASSERT_FALSE(files.empty());
  for (const std::string& path : files) {
    SCOPED_TRACE(path);
    const Snapshot snap = read_snapshot_file(path);
    const RestoredSim sim = restore_snapshot(snap);
    const Cwg cwg = Cwg::from_network(*sim.net);
    const std::int64_t cap = snap.detector.knot_density_cap;
    bool recorded_seen = false;
    for (const Knot& knot : find_knots(cwg)) {
      const CycleEnumeration reduced = knot_cycle_density(cwg, knot, cap);
      const CycleEnumeration plain = plain_density(cwg, knot, cap);
      EXPECT_EQ(reduced.count, plain.count);
      EXPECT_EQ(reduced.capped, plain.capped);
      if (canonical_knot_hash(cwg, knot) == snap.meta.cwg_hash &&
          static_cast<int>(knot.knot_vcs.size()) == snap.meta.knot_size) {
        EXPECT_EQ(plain.count, snap.meta.knot_cycle_density);
        recorded_seen = true;
      }
    }
    EXPECT_TRUE(recorded_seen);
  }
}

/// Recomputes every confirmed knot's density with the plain search and
/// compares it with the detector's count-only record.
struct PlainDensityCheck : KnotCaptureHook {
  std::int64_t cap = 0;
  int knots = 0;
  int multi_cycle = 0;
  std::size_t largest = 0;

  void on_knot(const Network&, const Cwg& cwg, const Knot& knot,
               const DeadlockRecord& record) override {
    const CycleEnumeration plain = plain_density(cwg, knot, cap);
    EXPECT_EQ(record.knot_cycle_density, plain.count) << "at knot " << knots;
    EXPECT_EQ(record.density_capped, plain.capped) << "at knot " << knots;
    ++knots;
    if (plain.count > 1) ++multi_cycle;
    largest = std::max(largest, knot.knot_vcs.size());
  }
};

TEST(KnotDensity, ReducedCountMatchesPlainSearchOnSaturatedTfarRun) {
  // The paper16 recipe's saturated point: a 16-ary 2-cube, TFAR, 1 VC, at
  // load 0.5, where knots are hundreds of chained VCs around branch points.
  ExperimentConfig cfg;
  cfg.sim.topology.k = 16;
  cfg.sim.topology.n = 2;
  cfg.sim.vcs = 1;
  cfg.sim.routing = RoutingKind::TFAR;
  cfg.traffic.load = 0.5;
  Simulation sim(cfg);
  PlainDensityCheck check;
  check.cap = cfg.detector.knot_density_cap;
  sim.detector().set_capture(&check);
  for (Cycle i = 0; i < 3000; ++i) {
    sim.injection().tick(sim.network());
    sim.network().step();
    sim.detector().tick(sim.network());
  }
  EXPECT_GE(check.knots, 10);
  EXPECT_GT(check.multi_cycle, 0);
  EXPECT_GE(check.largest, 100u);
}

TEST(CommittedCorpus, MutatedDensityDoesNotReplay) {
  const std::vector<std::string> files = corpus_files();
  ASSERT_FALSE(files.empty());
  for (const std::string& path : files) {
    SCOPED_TRACE(path);
    Snapshot snap = read_snapshot_file(path);
    ++snap.meta.knot_cycle_density;
    const ReplayResult replay = replay_capture(snap);
    EXPECT_TRUE(replay.knot_found);
    EXPECT_EQ(replay.cwg_hash, snap.meta.cwg_hash);
    EXPECT_FALSE(replay.matches);
    EXPECT_NE(replay.detail.find("density"), std::string::npos) << replay.detail;
  }
}

/// Two 4-VC ring knots on a unidirectional 4-ary 2-cube (DOR, 1 VC, 4-flit
/// messages in 2-flit buffers, so every blocked worm holds exactly 2 VCs and
/// requests 1). Column 0's ring is owned by three worms, two of which turn
/// in from row channels; row 1's ring by two worms lying wholly inside it.
/// Every knot vertex has induced in/out degree 1 and an owner holding 2 VCs
/// with 1 request, so refinement cannot separate the rings: equal canonical
/// hashes, different deadlock and resource sets.
ExperimentConfig hash_twin_config() {
  ExperimentConfig cfg;
  cfg.sim.topology = {4, 2, false, true};
  cfg.sim.routing = RoutingKind::DOR;
  cfg.sim.vcs = 1;
  cfg.sim.message_length = 4;
  cfg.sim.buffer_depth = 2;
  cfg.traffic.load = 0.0;
  return cfg;
}

/// Steps a network built from hash_twin_config() into the two twin knots.
void form_hash_twins(Network& net) {
  const struct {
    NodeId src;
    NodeId dst;
  } worms[] = {
      {0, 12},  // column 0 only: holds 0->4, 4->8, requests 8->12
      {11, 0},  // row 2 wrap, then 8->12; requests 12->0
      {15, 4},  // row 3 wrap, then 12->0; requests 0->4
      {4, 7},   // row 1: holds 4->5, 5->6, requests 6->7
      {6, 5},   // row 1: holds 6->7, 7->4, requests 4->5
  };
  for (const auto& worm : worms) net.enqueue_message(worm.src, worm.dst, 4);
  for (int i = 0; i < 50; ++i) net.step();
}

TEST(ReplayCapture, PicksTheRecordedKnotAmongHashTwins) {
  // Replay must pick the knot whose sizes match the recording, not the
  // first hash match.
  Simulation sim(hash_twin_config());
  Network& net = sim.network();
  form_hash_twins(net);

  const Cwg cwg = Cwg::from_network(net);
  const std::vector<Knot> knots = find_knots(cwg);
  ASSERT_EQ(knots.size(), 2u);
  const Knot& column = knots[0];
  const Knot& row = knots[1];
  ASSERT_EQ(canonical_knot_hash(cwg, column), canonical_knot_hash(cwg, row));
  ASSERT_EQ(column.knot_vcs.size(), 4u);
  ASSERT_EQ(row.knot_vcs.size(), 4u);
  ASSERT_EQ(column.deadlock_set.size(), 3u);
  ASSERT_EQ(row.deadlock_set.size(), 2u);

  // Record the second knot in canonical order, as a capture would.
  Snapshot snap = sim.make_checkpoint();
  snap.meta.kind = SnapshotKind::DeadlockCapture;
  snap.meta.deadlock_set_size = static_cast<int>(row.deadlock_set.size());
  snap.meta.resource_set_size = static_cast<int>(row.resource_set.size());
  snap.meta.knot_size = static_cast<int>(row.knot_vcs.size());
  snap.meta.knot_cycle_density =
      knot_cycle_density(cwg, row, snap.detector.knot_density_cap).count;
  snap.meta.cwg_hash = canonical_knot_hash(cwg, row);

  const ReplayResult replay = replay_capture(snap);
  EXPECT_TRUE(replay.matches) << replay.detail;
  EXPECT_EQ(replay.deadlock_set_size, 2);
  EXPECT_EQ(replay.resource_set_size, 4);

  // A recording matching neither twin still fails, with the first hash
  // match in the detail.
  ++snap.meta.resource_set_size;
  const ReplayResult mismatch = replay_capture(snap);
  EXPECT_FALSE(mismatch.matches);
  EXPECT_EQ(mismatch.deadlock_set_size, 3);
  EXPECT_NE(mismatch.detail.find("replayed 3/6/4"), std::string::npos)
      << mismatch.detail;
}

TEST(DeadlockCorpus, CapturesHashTwinsOfDifferentShape) {
  // Both twin knots confirmed in one cycle: one hash, different sizes. Each
  // gets its own file (the first under the plain name), each file replays
  // to its own knot, and only an exact repeat counts as a duplicate.
  Simulation sim(hash_twin_config());
  Network& net = sim.network();
  form_hash_twins(net);
  const Cwg cwg = Cwg::from_network(net);
  const std::vector<Knot> knots = find_knots(cwg);
  ASSERT_EQ(knots.size(), 2u);
  const std::uint64_t hash = canonical_knot_hash(cwg, knots[0]);
  ASSERT_EQ(canonical_knot_hash(cwg, knots[1]), hash);

  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "flexnet_corpus_twins";
  std::filesystem::remove_all(dir);
  const ExperimentConfig& cfg = sim.config();
  const MetricsCollector metrics;
  DeadlockCorpus corpus(dir.string(), 0, cfg.sim, cfg.traffic, cfg.workload,
                        cfg.detector, &sim.injection(), &sim.detector(),
                        &metrics);
  std::vector<DeadlockRecord> records;
  for (const Knot& knot : knots) {
    DeadlockRecord record;
    record.deadlock_set_size = static_cast<int>(knot.deadlock_set.size());
    record.resource_set_size = static_cast<int>(knot.resource_set.size());
    record.knot_size = static_cast<int>(knot.knot_vcs.size());
    record.knot_cycle_density =
        knot_cycle_density(cwg, knot, cfg.detector.knot_density_cap).count;
    records.push_back(record);
    corpus.on_knot(net, cwg, knot, record);
  }
  EXPECT_EQ(corpus.captured(), 2);
  EXPECT_EQ(corpus.duplicates(), 0);

  std::vector<std::string> names;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    names.push_back(entry.path().filename().string());
    const ReplayResult replay =
        replay_capture(read_snapshot_file(entry.path().string()));
    EXPECT_TRUE(replay.matches) << entry.path() << ": " << replay.detail;
  }
  std::sort(names.begin(), names.end());
  char first[64];
  std::snprintf(first, sizeof(first), "knot-50-%016llx",
                static_cast<unsigned long long>(hash));
  const std::vector<std::string> expected = {
      std::string(first) + "-2-4-4.snap", std::string(first) + ".snap"};
  EXPECT_EQ(names, expected);

  corpus.on_knot(net, cwg, knots[1], records[1]);
  EXPECT_EQ(corpus.captured(), 2);
  EXPECT_EQ(corpus.duplicates(), 1);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace flexnet
