// The one lockstep harness for the step modes. Every mode — the default
// engine (one shard, event-driven), the dense sweep (--step-dense) and any
// shard count (--shards N) — must produce byte-identical per-cycle network
// state, detector verdicts, snapshots, traces and streams (DESIGN.md §3j).
// test_step_equivalence.cpp runs the cross-mode suite on it and
// test_sharded_step.cpp the shard-specific cases and the state pins.
#pragma once

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/detector.hpp"
#include "exp/experiment.hpp"
#include "sim/network.hpp"
#include "snapshot/snapshot.hpp"
#include "telemetry/telemetry.hpp"
#include "traffic/injection.hpp"
#include "util/binio.hpp"
#include "util/rng.hpp"

namespace flexnet {

inline std::vector<std::uint8_t> net_bytes(const Network& net) {
  BinWriter out;
  net.save_state(out);
  return out.bytes();
}

inline std::vector<std::uint8_t> detector_bytes(const DeadlockDetector& det) {
  BinWriter out;
  det.save_state(out);
  return out.bytes();
}

/// 8-ary 2-cube, 1 VC (wrap-around routing can deadlock), length 8, seed 13,
/// detection every 5 cycles with RemoveOldest recovery.
inline ExperimentConfig grid_config(RoutingKind routing, double load) {
  ExperimentConfig cfg;
  cfg.sim.topology.k = 8;
  cfg.sim.topology.n = 2;
  cfg.sim.vcs = 1;
  cfg.sim.routing = routing;
  cfg.sim.message_length = 8;
  cfg.sim.seed = 13;
  cfg.traffic.load = load;
  cfg.detector.interval = 5;
  cfg.detector.recovery = RecoveryKind::RemoveOldest;
  return cfg;
}

/// One step mode: the dense sweep, or `shards` shards (0: the default).
struct StepMode {
  const char* name;
  bool dense = false;
  int shards = 0;
};

inline ExperimentConfig with_mode(ExperimentConfig cfg, const StepMode& mode) {
  cfg.run.step_dense = mode.dense;
  cfg.run.shards = mode.shards;
  return cfg;
}

/// Injects, steps and detects one cycle; returns the detector's verdict.
inline int step_cycle(Simulation& sim) {
  sim.injection().tick(sim.network());
  sim.network().step();
  return sim.detector().tick(sim.network());
}

/// Every node's injection-stall count on the heatmap of `sim`'s telemetry,
/// open stall spans included; empty when telemetry is off.
inline std::vector<std::int64_t> stall_counts(Simulation& sim) {
  std::vector<std::int64_t> counts;
  if (const Telemetry* telemetry = sim.telemetry()) {
    const Network& net = sim.network();
    for (NodeId n = 0; n < net.topology().num_nodes(); ++n) {
      counts.push_back(telemetry->heatmap().injection_stall_cycles(net, n));
    }
  }
  return counts;
}

/// True when some source of `net` sleeps with an open stall span.
inline bool any_source_sleeps(const Network& net) {
  for (NodeId n = 0; n < net.topology().num_nodes(); ++n) {
    if (net.injection_stall_span(n) > 0) return true;
  }
  return false;
}

/// Locksteps `cfg` in the default engine against the dense sweep and against
/// `shards` shards, asserting every detector verdict matches each cycle and
/// the full serialized network state, the heatmap stall counts (with
/// telemetry on) and the structural invariants (dormant headers and
/// sleeping sources included) hold periodically and at the end. When given,
/// `sleeping_checks` counts the periodic checks at which some source of the
/// default engine slept with an open stall span.
inline void run_lockstep(const ExperimentConfig& cfg, Cycle cycles,
                         int shards, int* sleeping_checks = nullptr) {
  const StepMode others[] = {{"dense", true, 0}, {"shards", false, shards}};
  Simulation base(cfg);
  ASSERT_EQ(base.network().shards(), 1);
  ASSERT_FALSE(base.network().step_dense());
  std::vector<std::unique_ptr<Simulation>> sims;
  for (const StepMode& mode : others) {
    sims.push_back(std::make_unique<Simulation>(with_mode(cfg, mode)));
  }
  ASSERT_TRUE(sims[0]->network().step_dense());
  ASSERT_EQ(sims[1]->network().shards(), shards);

  for (Cycle i = 0; i < cycles; ++i) {
    const int verdict = step_cycle(base);
    if (i % 250 == 0) {
      base.network().check_invariants();
      if (sleeping_checks != nullptr && any_source_sleeps(base.network())) {
        ++*sleeping_checks;
      }
    }
    for (std::size_t m = 0; m < sims.size(); ++m) {
      ASSERT_EQ(step_cycle(*sims[m]), verdict)
          << others[m].name << " diverged at cycle " << i;
      if (i % 250 == 0) {
        ASSERT_EQ(net_bytes(base.network()), net_bytes(sims[m]->network()))
            << others[m].name << " state diverged by cycle " << i;
        ASSERT_EQ(stall_counts(base), stall_counts(*sims[m]))
            << others[m].name << " stall counts diverged by cycle " << i;
        sims[m]->network().check_invariants();
      }
    }
  }

  for (std::size_t m = 0; m < sims.size(); ++m) {
    SCOPED_TRACE(others[m].name);
    Simulation& other = *sims[m];
    EXPECT_EQ(net_bytes(base.network()), net_bytes(other.network()));
    EXPECT_EQ(detector_bytes(base.detector()), detector_bytes(other.detector()));
    EXPECT_EQ(stall_counts(base), stall_counts(other));
    EXPECT_EQ(base.network().counters().delivered,
              other.network().counters().delivered);
    EXPECT_EQ(base.network().counters().recovered,
              other.network().counters().recovered);
    // The composed epoch (base + per-shard terms) counts each CWG event
    // exactly once regardless of which term absorbed it.
    EXPECT_EQ(base.network().arc_epoch(), other.network().arc_epoch());
    // Snapshots never record the execution strategy: the active sets and
    // the shard count are derived state and never enter the format.
    EXPECT_EQ(encode_snapshot(base.make_checkpoint()),
              encode_snapshot(other.make_checkpoint()));
  }
  // The run must have moved traffic, or the equivalence is vacuous.
  EXPECT_GT(base.network().counters().delivered, 0);
}

/// FNV-1a over the network state after `cycles` lockstep cycles of `cfg`,
/// hashed in the v3 layout the pins were recorded in: v3 carried three words
/// of a network generator after the counters, which the one-shard engine
/// seeded and never drew from, so they are spliced back in at their seeded
/// values.
inline std::uint64_t state_hash_after(const ExperimentConfig& cfg,
                                      Cycle cycles) {
  Simulation sim(cfg);
  for (Cycle i = 0; i < cycles; ++i) step_cycle(sim);
  std::vector<std::uint8_t> bytes = net_bytes(sim.network());
  BinWriter counters;
  Network::save_counters(counters, sim.network().counters());
  // now_ (i64), blocked count and fault count (i32 each), then the counters.
  const std::size_t at = 16 + counters.bytes().size();
  const Pcg32::State seeded =
      Pcg32(splitmix64(cfg.sim.seed), 0x6e657477 /* "netw" */).save();
  BinWriter generator;
  generator.u64(seeded.state);
  generator.u64(seeded.inc);
  generator.u64(seeded.draws);
  bytes.insert(bytes.begin() + static_cast<std::ptrdiff_t>(at),
               generator.bytes().begin(), generator.bytes().end());
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const std::uint8_t byte : bytes) {
    h ^= byte;
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// Removes the manifest's "profile" object — the only block whose values are
/// wall-clock dependent — by brace-balancing from its key.
inline std::string strip_profile(std::string text) {
  const std::size_t key = text.find("\"profile\":");
  if (key == std::string::npos) return text;
  std::size_t open = text.find('{', key);
  int depth = 0;
  std::size_t end = open;
  for (; end < text.size(); ++end) {
    if (text[end] == '{') ++depth;
    if (text[end] == '}' && --depth == 0) break;
  }
  text.erase(key, end - key + 1);
  return text;
}

inline std::string read_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

}  // namespace flexnet
