// Replays the committed deadlock corpus (tests/corpus/*.snap): every capture
// must decode, restore, and re-produce the recorded knot — same canonical
// CWG hash, same deadlock/resource set sizes, same knot cycle density — when
// detection is re-run on the restored network. This pins the snapshot format
// AND the detector's verdict against regressions.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <vector>

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

}  // namespace
}  // namespace flexnet
