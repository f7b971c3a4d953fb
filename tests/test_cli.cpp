#include "exp/cli.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

namespace flexnet {
namespace {

Options parse(std::initializer_list<const char*> args) {
  std::vector<const char*> argv{"prog"};
  argv.insert(argv.end(), args.begin(), args.end());
  const auto opts = Options::parse(static_cast<int>(argv.size()), argv.data());
  EXPECT_TRUE(opts.has_value());
  return *opts;
}

TEST(Cli, EnumParsersRoundTrip) {
  EXPECT_EQ(parse_routing("DOR"), RoutingKind::DOR);
  EXPECT_EQ(parse_routing("DuatoTFAR"), RoutingKind::DuatoTFAR);
  EXPECT_EQ(parse_selection("Random"), SelectionKind::Random);
  EXPECT_EQ(parse_traffic("BitReversal"), TrafficKind::BitReversal);
  EXPECT_EQ(parse_recovery("RemoveRandom"), RecoveryKind::RemoveRandom);
  EXPECT_THROW((void)parse_routing("XYZ"), std::invalid_argument);
  EXPECT_THROW((void)parse_selection(""), std::invalid_argument);
  EXPECT_THROW((void)parse_traffic("uniform"), std::invalid_argument);
  EXPECT_THROW((void)parse_recovery("oldest"), std::invalid_argument);
}

TEST(Cli, DefaultsMatchPaperBaseline) {
  const ExperimentConfig cfg = experiment_from_options(parse({}));
  EXPECT_EQ(cfg.sim.topology.k, 16);
  EXPECT_EQ(cfg.sim.topology.n, 2);
  EXPECT_TRUE(cfg.sim.topology.bidirectional);
  EXPECT_EQ(cfg.sim.vcs, 1);
  EXPECT_EQ(cfg.sim.routing, RoutingKind::TFAR);
  EXPECT_EQ(cfg.traffic.pattern, TrafficKind::Uniform);
  EXPECT_EQ(cfg.detector.interval, 50);
  EXPECT_TRUE(cfg.detector.require_quiescence);
}

TEST(Cli, FullConfiguration) {
  const ExperimentConfig cfg = experiment_from_options(
      parse({"--k", "8", "--n", "3", "--uni", "--vcs", "2", "--buffer", "4",
             "--length", "16", "--routing", "DOR", "--selection",
             "LowestIndex", "--traffic", "HotSpot", "--hotspots", "2",
             "--hotspot-fraction", "0.4", "--load", "0.33", "--interval",
             "25", "--recovery", "RemoveNewest", "--warmup", "123",
             "--measure", "456", "--seed", "9", "--queue-limit", "7"}));
  EXPECT_EQ(cfg.sim.topology.k, 8);
  EXPECT_EQ(cfg.sim.topology.n, 3);
  EXPECT_FALSE(cfg.sim.topology.bidirectional);
  EXPECT_EQ(cfg.sim.vcs, 2);
  EXPECT_EQ(cfg.sim.buffer_depth, 4);
  EXPECT_EQ(cfg.sim.message_length, 16);
  EXPECT_EQ(cfg.sim.routing, RoutingKind::DOR);
  EXPECT_EQ(cfg.sim.selection, SelectionKind::LowestIndex);
  EXPECT_EQ(cfg.traffic.pattern, TrafficKind::HotSpot);
  EXPECT_EQ(cfg.traffic.hotspot_nodes, 2);
  EXPECT_DOUBLE_EQ(cfg.traffic.hotspot_fraction, 0.4);
  EXPECT_DOUBLE_EQ(cfg.traffic.load, 0.33);
  EXPECT_EQ(cfg.detector.interval, 25);
  EXPECT_EQ(cfg.detector.recovery, RecoveryKind::RemoveNewest);
  EXPECT_EQ(cfg.run.warmup, 123);
  EXPECT_EQ(cfg.run.measure, 456);
  EXPECT_EQ(cfg.sim.seed, 9u);
  EXPECT_EQ(cfg.sim.source_queue_limit, 7);
}

TEST(Cli, MeshAndHybridAndFaults) {
  const ExperimentConfig cfg = experiment_from_options(
      parse({"--mesh", "--routing", "NegativeFirst", "--hybrid", "Transpose",
             "--hybrid-fraction", "0.25"}));
  EXPECT_FALSE(cfg.sim.topology.wrap);
  EXPECT_EQ(cfg.sim.routing, RoutingKind::NegativeFirst);
  EXPECT_EQ(cfg.traffic.hybrid_with, TrafficKind::Transpose);
  EXPECT_DOUBLE_EQ(cfg.traffic.hybrid_fraction, 0.25);

  const ExperimentConfig faulty = experiment_from_options(
      parse({"--routing", "TFAR", "--faults", "0.1"}));
  EXPECT_DOUBLE_EQ(faulty.sim.link_fault_fraction, 0.1);
}

TEST(Cli, InvalidCombinationRejectedByValidate) {
  // DOR + faults is invalid; experiment_from_options validates eagerly.
  EXPECT_THROW((void)experiment_from_options(
                   parse({"--routing", "DOR", "--faults", "0.1"})),
               std::invalid_argument);
}

TEST(Cli, QuiescenceAndCycleFlags) {
  const ExperimentConfig cfg = experiment_from_options(
      parse({"--no-quiescence", "--count-cycles", "--cycle-cap", "777"}));
  EXPECT_FALSE(cfg.detector.require_quiescence);
  EXPECT_TRUE(cfg.detector.count_total_cycles);
  EXPECT_EQ(cfg.detector.total_cycle_cap, 777);
}

TEST(Cli, StepDenseFlag) {
  EXPECT_FALSE(experiment_from_options(parse({})).run.step_dense);
  EXPECT_TRUE(experiment_from_options(parse({"--step-dense"})).run.step_dense);
}

// The message experiment_from_options throws, or "" when it accepts.
std::string rejection(std::initializer_list<const char*> args) {
  try {
    (void)experiment_from_options(parse(args));
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

TEST(Cli, DetectionIntervalMustBePositive) {
  // Interval 0 would never run the detector: no deadlock is ever counted.
  EXPECT_NE(rejection({"--interval", "0"}).find("--interval"),
            std::string::npos);
  EXPECT_NE(rejection({"--interval", "-3"}).find("--interval"),
            std::string::npos);
  EXPECT_EQ(rejection({"--interval", "1"}), "");
}

TEST(Cli, RunWindowsMustBeUsable) {
  EXPECT_NE(rejection({"--warmup", "-1"}).find("--warmup"), std::string::npos);
  EXPECT_EQ(rejection({"--warmup", "0"}), "");
  // A zero-length window would print as a saturated point.
  EXPECT_NE(rejection({"--measure", "0"}).find("--measure"),
            std::string::npos);
  EXPECT_NE(rejection({"--measure", "-5"}).find("--measure"),
            std::string::npos);
  EXPECT_EQ(rejection({"--measure", "1"}), "");
}

TEST(Cli, UnknownOptionNamesRejected) {
  // A misspelled flag used to run the default silently (32-flit messages).
  EXPECT_NE(rejection({"--lenght", "1"}).find("--lenght"), std::string::npos);
  EXPECT_NE(rejection({"--k", "8", "--cycles", "100"}).find("--cycles"),
            std::string::npos);
  // The output options sweep_cli reads itself are known.
  EXPECT_EQ(rejection({"--csv", "out.csv", "--label", "x", "--profile",
                       "--heatmap-ascii", "--loads", "0.1"}),
            "");
  EXPECT_EQ(rejection({"--route-table-dump", "t.rt", "--routing",
                       "TableMin", "--topology", "random"}),
            "");
}

TEST(Cli, LoadsListParsing) {
  const std::vector<double> loads =
      loads_from_options(parse({"--loads", "0.1,0.25,0.7"}));
  ASSERT_EQ(loads.size(), 3u);
  EXPECT_DOUBLE_EQ(loads[0], 0.1);
  EXPECT_DOUBLE_EQ(loads[1], 0.25);
  EXPECT_DOUBLE_EQ(loads[2], 0.7);
}

TEST(Cli, LoadsSweepParsing) {
  const std::vector<double> loads = loads_from_options(
      parse({"--load-min", "0.2", "--load-max", "0.4", "--load-steps", "3"}));
  ASSERT_EQ(loads.size(), 3u);
  EXPECT_DOUBLE_EQ(loads[0], 0.2);
  EXPECT_DOUBLE_EQ(loads[1], 0.3);
  EXPECT_DOUBLE_EQ(loads[2], 0.4);
}

TEST(Cli, MalformedLoadsRejected) {
  EXPECT_THROW((void)loads_from_options(parse({"--loads", "abc"})),
               std::invalid_argument);
}

}  // namespace
}  // namespace flexnet
