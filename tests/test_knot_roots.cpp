// The detector's knot search runs Tarjan only from the blocked messages'
// tips. These tests hold that rooted search to Tarjan from every vertex (the
// find_knots reference) and to a plain BFS from every tip: the same knots,
// the same reached-set size and the same largest component. They run on
// random graphs shaped like a CWG (vertex-disjoint solid paths plus dashed
// arcs from each blocked path's tip) and, through DeadlockDetector, on live
// runs restored from every committed corpus snapshot.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <numeric>
#include <string>
#include <vector>

#include "core/cwg.hpp"
#include "core/detector.hpp"
#include "core/knot.hpp"
#include "core/scc.hpp"
#include "sim/network.hpp"
#include "snapshot/snapshot.hpp"
#include "traffic/injection.hpp"
#include "util/rng.hpp"

#ifndef FLEXNET_CORPUS_DIR
#error "FLEXNET_CORPUS_DIR must point at the committed tests/corpus directory"
#endif

namespace flexnet {
namespace {

std::vector<int> blocked_tips(const Cwg& cwg) {
  std::vector<int> tips;
  for (const CwgMessage& msg : cwg.messages()) {
    if (!msg.requests.empty()) tips.push_back(msg.held.back());
  }
  return tips;
}

/// What the rooted search must report, computed without it: the knots of
/// Tarjan from every vertex, the size of a BFS from every blocked tip, and
/// the largest whole-graph component among the VCs that BFS reaches.
struct Reference {
  std::vector<Knot> knots;
  std::int64_t reached = 0;
  std::int64_t largest_scc = 0;
};

Reference reference(const Cwg& cwg) {
  const Digraph& g = cwg.graph();
  Reference ref;
  ref.knots = find_knots(cwg);
  const SccResult full = strongly_connected_components(g);
  std::vector<bool> seen(static_cast<std::size_t>(g.num_vertices()), false);
  std::vector<int> queue;
  for (const int tip : blocked_tips(cwg)) {
    if (!seen[static_cast<std::size_t>(tip)]) {
      seen[static_cast<std::size_t>(tip)] = true;
      queue.push_back(tip);
    }
  }
  for (std::size_t head = 0; head < queue.size(); ++head) {
    for (const int w : g.out(queue[head])) {
      if (!seen[static_cast<std::size_t>(w)]) {
        seen[static_cast<std::size_t>(w)] = true;
        queue.push_back(w);
      }
    }
  }
  ref.reached = static_cast<std::int64_t>(queue.size());
  for (const int v : queue) {
    const int c = full.component[static_cast<std::size_t>(v)];
    ref.largest_scc = std::max<std::int64_t>(
        ref.largest_scc, full.size[static_cast<std::size_t>(c)]);
  }
  return ref;
}

void expect_same_knots(const std::vector<Knot>& got,
                       const std::vector<Knot>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t k = 0; k < got.size(); ++k) {
    SCOPED_TRACE("knot " + std::to_string(k));
    EXPECT_EQ(got[k].knot_vcs, want[k].knot_vcs);
    EXPECT_EQ(got[k].deadlock_set, want[k].deadlock_set);
    EXPECT_EQ(got[k].resource_set, want[k].resource_set);
    EXPECT_EQ(got[k].dependent_messages, want[k].dependent_messages);
  }
}

/// A random CWG: vertex-disjoint held paths over a shuffled VC list (some
/// VCs stay free), and for each blocked message 1-3 dashed arcs from its tip
/// to any VC, its own included.
Cwg random_cwg(Pcg32& rng) {
  const int num_vcs = 8 + static_cast<int>(rng.bounded(120));
  std::vector<VcId> order(static_cast<std::size_t>(num_vcs));
  std::iota(order.begin(), order.end(), 0);
  for (std::size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1],
              order[rng.bounded(static_cast<std::uint32_t>(i))]);
  }
  const std::uint32_t blocked_percent = 30 + rng.bounded(70);
  std::vector<CwgMessage> messages;
  std::size_t next = 0;
  while (next < order.size()) {
    const std::size_t len = 1 + rng.bounded(4);
    if (next + len > order.size() || rng.bounded(8) == 0) {
      next += len;  // leave these VCs free
      continue;
    }
    CwgMessage msg;
    msg.id = static_cast<MessageId>(messages.size() * 3 + 1);
    msg.held.assign(order.begin() + static_cast<std::ptrdiff_t>(next),
                    order.begin() + static_cast<std::ptrdiff_t>(next + len));
    next += len;
    if (rng.bounded(100) < blocked_percent) {
      const std::uint32_t wants = 1 + rng.bounded(3);
      for (std::uint32_t r = 0; r < wants; ++r) {
        const auto want = static_cast<VcId>(
            rng.bounded(static_cast<std::uint32_t>(num_vcs)));
        if (std::find(msg.requests.begin(), msg.requests.end(), want) ==
            msg.requests.end()) {
          msg.requests.push_back(want);
        }
      }
    }
    messages.push_back(std::move(msg));
  }
  return Cwg(num_vcs, std::move(messages));
}

TEST(KnotRoots, RootedSearchMatchesFullTarjanOnRandomCwgs) {
  Pcg32 rng(20260);
  // One result and scratch for every graph: each call must clear exactly
  // what the previous one reached, across graphs of different sizes.
  SccResult scc;
  SccScratch scratch;
  int with_knots = 0;
  for (int trial = 0; trial < 2000; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    const Cwg cwg = random_cwg(rng);
    const Reference ref = reference(cwg);
    strongly_connected_components(cwg.graph(), blocked_tips(cwg), scc,
                                  scratch);
    std::vector<Knot> knots = knots_from_scc(cwg.graph(), scc);
    characterize_knots(cwg, knots);
    expect_same_knots(knots, ref.knots);
    EXPECT_EQ(static_cast<std::int64_t>(scc.reached.size()), ref.reached);
    const std::int64_t largest =
        scc.size.empty()
            ? 0
            : *std::max_element(scc.size.begin(), scc.size.end());
    EXPECT_EQ(largest, ref.largest_scc);
    if (!ref.knots.empty()) ++with_knots;
    if (HasFailure()) return;
  }
  // The generator must exercise both verdicts.
  EXPECT_GT(with_knots, 200);
  EXPECT_LT(with_knots, 1800);
}

/// Checks every detection pass's knots, as the capture hook sees them,
/// against the reference taken just before the pass.
struct KnotCheck : KnotCaptureHook {
  const Reference* ref = nullptr;
  int confirmed = 0;

  void on_knot(const Network&, const Cwg&, const Knot& knot,
               const DeadlockRecord&) override {
    ++confirmed;
    const bool found = std::any_of(
        ref->knots.begin(), ref->knots.end(), [&](const Knot& want) {
          return want.knot_vcs == knot.knot_vcs &&
                 want.deadlock_set == knot.deadlock_set &&
                 want.resource_set == knot.resource_set &&
                 want.dependent_messages == knot.dependent_messages;
        });
    EXPECT_TRUE(found) << "knot of " << knot.knot_vcs.size()
                       << " VCs is not one of the reference's";
  }
};

TEST(KnotRoots, DetectorMatchesFullTarjanOnCorpusRuns) {
  std::vector<std::string> files;
  for (const auto& entry :
       std::filesystem::directory_iterator(FLEXNET_CORPUS_DIR)) {
    if (entry.path().extension() == ".snap") {
      files.push_back(entry.path().string());
    }
  }
  std::sort(files.begin(), files.end());
  ASSERT_FALSE(files.empty());

  for (const std::string& path : files) {
    SCOPED_TRACE(path);
    const Snapshot snap = read_snapshot_file(path);
    RestoredSim sim = restore_snapshot(snap);
    DetectorConfig cfg = snap.detector;
    cfg.interval = 1;
    cfg.full_rebuild = false;
    DeadlockDetector det(cfg, 7);
    KnotCheck check;
    det.set_capture(&check);
    int knotted_passes = 0;
    for (int step = 0; step < 300; ++step) {
      SCOPED_TRACE("step " + std::to_string(step));
      sim.injection->tick(*sim.net);
      sim.net->step();
      const Reference ref = reference(Cwg::from_network(*sim.net));
      check.ref = &ref;
      det.tick(*sim.net);
      const PressureStats& pressure = det.pressure();
      ASSERT_TRUE(pressure.valid);
      EXPECT_EQ(pressure.computed_at, sim.net->now());
      EXPECT_EQ(pressure.closure_size, ref.reached);
      EXPECT_EQ(pressure.largest_scc, ref.largest_scc);
      EXPECT_EQ(pressure.knots, static_cast<std::int64_t>(ref.knots.size()));
      if (!ref.knots.empty()) ++knotted_passes;
      if (HasFailure()) return;
    }
    EXPECT_GT(knotted_passes, 0) << "the restored run never held a knot";
    EXPECT_GT(check.confirmed, 0);
  }
}

}  // namespace
}  // namespace flexnet
