// Replay-grade determinism: the same (config, seed) must produce a
// byte-identical binary event trace every time, whether points run alone or
// inside a (parallel) sweep. This is the backbone guarantee that makes traces
// usable as reproduction artifacts.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "exp/experiment.hpp"
#include "exp/sweep.hpp"

namespace flexnet {
namespace {

ExperimentConfig traced_config() {
  ExperimentConfig cfg;
  cfg.sim.topology.k = 4;
  cfg.sim.topology.bidirectional = false;
  cfg.sim.routing = RoutingKind::DOR;
  cfg.sim.vcs = 1;
  cfg.traffic.load = 0.5;
  cfg.run.warmup = 200;
  cfg.run.measure = 800;
  return cfg;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

std::string temp_path(const std::string& name) {
  return testing::TempDir() + name;
}

TEST(TraceDeterminism, SameConfigSameSeedSameBytes) {
  ExperimentConfig cfg = traced_config();
  const std::string a = temp_path("det_a.bin");
  const std::string b = temp_path("det_b.bin");

  cfg.trace.binary_path = a;
  (void)run_experiment(cfg);
  cfg.trace.binary_path = b;
  (void)run_experiment(cfg);

  const std::string bytes_a = slurp(a);
  ASSERT_FALSE(bytes_a.empty());
  EXPECT_EQ(bytes_a, slurp(b));
  std::remove(a.c_str());
  std::remove(b.c_str());
}

TEST(TraceDeterminism, DifferentSeedDifferentBytes) {
  ExperimentConfig cfg = traced_config();
  const std::string a = temp_path("det_s1.bin");
  const std::string b = temp_path("det_s2.bin");
  cfg.trace.binary_path = a;
  (void)run_experiment(cfg);
  cfg.sim.seed = 99;
  cfg.trace.binary_path = b;
  (void)run_experiment(cfg);
  EXPECT_NE(slurp(a), slurp(b));
  std::remove(a.c_str());
  std::remove(b.c_str());
}

TEST(TraceDeterminism, ParallelSweepMatchesSerialSweep) {
  const std::vector<double> loads{0.3, 0.6, 0.9};

  ExperimentConfig serial_cfg = traced_config();
  serial_cfg.trace.binary_path = temp_path("sweep_serial.bin");
  const auto serial = sweep_loads(serial_cfg, loads, /*parallel=*/false);

  ExperimentConfig parallel_cfg = traced_config();
  parallel_cfg.trace.binary_path = temp_path("sweep_parallel.bin");
  const auto parallel = sweep_loads(parallel_cfg, loads, /*parallel=*/true);

  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < loads.size(); ++i) {
    EXPECT_EQ(serial[i].window.generated, parallel[i].window.generated);
    const std::string suffix = ".p" + std::to_string(i);
    const std::string serial_bytes =
        slurp(serial_cfg.trace.binary_path + suffix);
    ASSERT_FALSE(serial_bytes.empty());
    EXPECT_EQ(serial_bytes, slurp(parallel_cfg.trace.binary_path + suffix))
        << "point " << i;
    std::remove((serial_cfg.trace.binary_path + suffix).c_str());
    std::remove((parallel_cfg.trace.binary_path + suffix).c_str());
  }
}

TEST(TraceDeterminism, ForensicsReportsAreReproducible) {
  ExperimentConfig cfg = traced_config();
  cfg.traffic.load = 0.7;
  cfg.trace.forensics = true;
  const ExperimentResult a = run_experiment(cfg);
  const ExperimentResult b = run_experiment(cfg);
  ASSERT_EQ(a.forensics.size(), b.forensics.size());
  for (std::size_t i = 0; i < a.forensics.size(); ++i) {
    EXPECT_EQ(a.forensics[i].detected_at, b.forensics[i].detected_at);
    EXPECT_EQ(a.forensics[i].victim, b.forensics[i].victim);
    EXPECT_EQ(a.forensics[i].dot, b.forensics[i].dot);
    EXPECT_EQ(format_forensics_report(a.forensics[i]),
              format_forensics_report(b.forensics[i]));
  }
}

TEST(TraceDeterminism, TfarStreamPinned) {
  // MessageBlocked and CwgArcAdded/CwgArcRemoved come from the header-retry
  // loop, and the state pins cannot see their order. An adaptive run that
  // blocks, deadlocks and recovers pins the whole stream; a mismatch is a
  // change of the semantics or of the event order. The value is the
  // one-shard engine's (transmit-start credits, per-(message, cycle)
  // selection draws, request sets in routing-relation order; DESIGN.md
  // §3h), which every shard count reproduces.
  for (const int shards : {0, 4}) {
    SCOPED_TRACE(shards);
    ExperimentConfig cfg;
    cfg.sim.topology.k = 8;
    cfg.sim.topology.n = 2;
    cfg.sim.routing = RoutingKind::TFAR;
    cfg.sim.vcs = 1;
    cfg.sim.message_length = 8;
    cfg.sim.seed = 13;
    cfg.traffic.load = 0.5;
    cfg.run.warmup = 200;
    cfg.run.measure = 800;
    cfg.run.shards = shards;
    cfg.detector.interval = 5;
    cfg.detector.recovery = RecoveryKind::RemoveOldest;
    const std::string path = temp_path("tfar_pin.bin");
    cfg.trace.binary_path = path;
    const ExperimentResult result = run_experiment(cfg);
    EXPECT_GT(result.window.deadlocks, 0);

    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const char byte : slurp(path)) {
      h ^= static_cast<std::uint8_t>(byte);
      h *= 0x100000001b3ULL;
    }
    EXPECT_EQ(h, 0xa8ef5a3a306b2020ULL);
    std::remove(path.c_str());
  }
}

}  // namespace
}  // namespace flexnet
