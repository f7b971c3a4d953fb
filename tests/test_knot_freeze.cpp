// Knot-freeze oracle: a knot verdict checked by stepping the network, not by
// another copy of the detector. A deadlock is a state that no schedule can
// move (Verbeek & Schmaltz 2011; Stramaglia, Keiren & Zantema 2021), so once a
// knot's deadlock set is immobile, thousands of further steps — with no
// injection and no recovery — must leave every member's held chain and
// sent-flit count unchanged. Checked on every committed corpus capture and on
// the EXPERIMENTS.md D1 scenario, under default, dense and 4-shard stepping.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "core/cwg.hpp"
#include "core/knot.hpp"
#include "exp/experiment.hpp"
#include "sim/network.hpp"
#include "snapshot/snapshot.hpp"
#include "traffic/injection.hpp"

#ifndef FLEXNET_CORPUS_DIR
#error "FLEXNET_CORPUS_DIR must point at the committed tests/corpus directory"
#endif

namespace flexnet {
namespace {

enum class StepMode { Default, Dense, Sharded };

const char* to_string(StepMode mode) {
  switch (mode) {
    case StepMode::Default: return "default";
    case StepMode::Dense: return "dense";
    case StepMode::Sharded: return "4 shards";
  }
  return "?";
}

void set_step_mode(Network& net, StepMode mode) {
  if (mode == StepMode::Dense) net.set_step_dense(true);
  if (mode == StepMode::Sharded) net.set_shards(4);
}

/// Asserts every member of `deadlock_set` is immobile, steps `cycles` times
/// (no injection, no recovery), and expects no member to have moved.
void expect_frozen(Network& net, const std::vector<MessageId>& deadlock_set,
                   int cycles) {
  struct Member {
    MessageId id;
    std::vector<VcId> held;
    std::int32_t flits_sent;
  };
  std::vector<Member> before;
  for (const MessageId id : deadlock_set) {
    ASSERT_TRUE(net.message_immobile(id)) << "message " << id;
    const Message& msg = net.message(id);
    before.push_back({id, msg.held, msg.flits_sent});
  }
  for (int i = 0; i < cycles; ++i) net.step();
  for (const Member& member : before) {
    const Message& msg = net.message(member.id);
    EXPECT_EQ(msg.status, MessageStatus::InFlight) << "message " << member.id;
    EXPECT_EQ(msg.held, member.held) << "message " << member.id;
    EXPECT_EQ(msg.flits_sent, member.flits_sent) << "message " << member.id;
  }
  net.check_invariants();
}

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

TEST(KnotFreeze, CommittedCapturesStayFrozen) {
  const std::vector<std::string> files = corpus_files();
  ASSERT_FALSE(files.empty());
  for (const StepMode mode :
       {StepMode::Default, StepMode::Dense, StepMode::Sharded}) {
    for (const std::string& path : files) {
      SCOPED_TRACE(path + " / " + to_string(mode));
      const Snapshot snap = read_snapshot_file(path);
      RestoredSim sim = restore_snapshot(snap);
      set_step_mode(*sim.net, mode);

      // The recorded knot: canonical hash and recorded sizes both match.
      const Cwg cwg = Cwg::from_network(*sim.net);
      const std::vector<Knot> knots = find_knots(cwg);
      const auto recorded =
          std::find_if(knots.begin(), knots.end(), [&](const Knot& knot) {
            return canonical_knot_hash(cwg, knot) == snap.meta.cwg_hash &&
                   static_cast<int>(knot.deadlock_set.size()) ==
                       snap.meta.deadlock_set_size &&
                   static_cast<int>(knot.resource_set.size()) ==
                       snap.meta.resource_set_size;
          });
      ASSERT_NE(recorded, knots.end()) << "recorded knot not in the capture";
      expect_frozen(*sim.net, recorded->deadlock_set, 2000);
    }
  }
}

TEST(KnotFreeze, SaturatedDor3KnotStaysFrozen) {
  // EXPERIMENTS.md D1: the default 16-ary 2-cube, DOR with 3 VCs at load 0.9
  // and recovery off forms a full-ring knot deep in saturation. The first
  // quiescent one (every deadlock-set member immobile) must stay frozen for
  // 5,000 cycles with injection stopped while the traffic around it drains.
  for (const StepMode mode :
       {StepMode::Default, StepMode::Dense, StepMode::Sharded}) {
    SCOPED_TRACE(to_string(mode));
    ExperimentConfig cfg;
    cfg.sim.routing = RoutingKind::DOR;
    cfg.sim.vcs = 3;
    cfg.sim.seed = 1;
    cfg.traffic.load = 0.9;
    cfg.detector.recovery = RecoveryKind::None;
    Simulation sim(cfg);
    Network& net = sim.network();
    set_step_mode(net, mode);

    std::vector<MessageId> deadlock_set;
    while (deadlock_set.empty() && net.now() < 20000) {
      sim.injection().tick(net);
      net.step();
      if (net.now() % 50 != 0) continue;
      const Cwg cwg = Cwg::from_network(net);
      for (const Knot& knot : find_knots(cwg)) {
        const auto immobile = [&](MessageId id) {
          return net.message_immobile(id);
        };
        if (std::all_of(knot.deadlock_set.begin(), knot.deadlock_set.end(),
                        immobile)) {
          deadlock_set = knot.deadlock_set;
          break;
        }
      }
    }
    ASSERT_FALSE(deadlock_set.empty()) << "no quiescent knot formed";
    // Every mode reaches the same state, so every mode forms it here.
    EXPECT_EQ(net.now(), 3900);
    EXPECT_EQ(deadlock_set.size(), 10u);

    const std::int64_t delivered = net.counters().delivered;
    expect_frozen(net, deadlock_set, 5000);
    EXPECT_GT(net.counters().delivered, delivered)
        << "the traffic around the knot should drain";
  }
}

}  // namespace
}  // namespace flexnet
