// Detection accuracy: how does timeout-based presumed-deadlock detection
// (Compressionless Routing / Disha style) compare against true knot-based
// detection — and how often do packet-wait-for-graph cycles appear without
// any deadlock?
//
// This is the paper's Related Work quantified: "Deadlock approximation
// schemes proposed previously have provided little insight into the
// frequency of true deadlocks", and Section 2.2.3's point that eliminating
// PWG cycles (Dally & Aoki) is overly restrictive.
//
//   ./detection_accuracy [--routing NAME] [--vcs N] [--load X] [--k N]
#include <cstdio>
#include <string_view>

#include "core/pwg.hpp"
#include "core/timeout.hpp"
#include "flexnet.hpp"

namespace {

using namespace flexnet;

// Every option this example reads.
constexpr std::string_view kOptions[] = {"routing", "vcs", "k", "load"};

int study(const Options& opts) {
  ExperimentConfig cfg;
  cfg.sim.routing = parse_routing(opts.get("routing", "DOR"));
  cfg.sim.vcs = static_cast<int>(opts.get_int("vcs", 1));
  cfg.sim.topology.k = static_cast<int>(opts.get_int("k", 16));
  cfg.traffic.load = opts.get_double("load", 0.4);
  cfg.detector.recovery = RecoveryKind::None;  // observe, don't intervene

  std::printf("Detection accuracy study: %s, %d VC(s), %d-ary 2-cube, "
              "load %.2f (no recovery; sampling every 50 cycles)\n\n",
              std::string(to_string(cfg.sim.routing)).c_str(), cfg.sim.vcs,
              cfg.sim.topology.k, cfg.traffic.load);

  Simulation sim(cfg);
  Network& net = sim.network();

  const Cycle thresholds[] = {25, 50, 100, 250, 1000};
  TimeoutAccuracy totals[5];
  std::int64_t samples = 0;
  std::int64_t pwg_cycle_samples = 0;
  std::int64_t knot_samples = 0;
  std::int64_t pwg_messages_on_cycles = 0;

  for (Cycle t = 0; t < 6000; ++t) {
    sim.injection().tick(net);
    net.step();
    if (net.now() % 50 != 0) continue;
    ++samples;
    for (std::size_t i = 0; i < 5; ++i) {
      const TimeoutAccuracy acc = classify_timeout_detection(net, thresholds[i]);
      totals[i].presumed += acc.presumed;
      totals[i].true_positive += acc.true_positive;
      totals[i].dependent += acc.dependent;
      totals[i].false_positive += acc.false_positive;
      totals[i].actually_deadlocked += acc.actually_deadlocked;
    }
    const Cwg cwg = Cwg::from_network(net);
    const Pwg pwg = Pwg::from_cwg(cwg);
    if (pwg.has_cycle()) {
      ++pwg_cycle_samples;
      pwg_messages_on_cycles += pwg.messages_on_cycles();
    }
    if (has_deadlock(cwg)) ++knot_samples;
  }

  std::printf("%-10s %10s %10s %10s %10s %10s %8s\n", "timeout", "presumed",
              "true+", "dependent", "false+", "missed", "FP rate");
  for (std::size_t i = 0; i < 5; ++i) {
    std::printf("%-10lld %10lld %10lld %10lld %10lld %10lld %7.1f%%\n",
                static_cast<long long>(thresholds[i]),
                static_cast<long long>(totals[i].presumed),
                static_cast<long long>(totals[i].true_positive),
                static_cast<long long>(totals[i].dependent),
                static_cast<long long>(totals[i].false_positive),
                static_cast<long long>(totals[i].missed()),
                100.0 * totals[i].false_positive_rate());
  }
  std::printf("\n(true+ = presumed messages actually in a deadlock set;"
              " dependent = blocked on a deadlock but removing them would not"
              " resolve it; false+ = merely congested)\n");
  std::printf("\nPWG vs CWG over %lld samples: PWG cycles present in %lld"
              " samples (avg %.1f messages on cycles), true deadlock present"
              " in %lld samples.\n",
              static_cast<long long>(samples),
              static_cast<long long>(pwg_cycle_samples),
              pwg_cycle_samples > 0
                  ? static_cast<double>(pwg_messages_on_cycles) /
                        static_cast<double>(pwg_cycle_samples)
                  : 0.0,
              static_cast<long long>(knot_samples));
  std::printf("Every PWG-cycle sample without a knot is routing freedom that"
              " cycle-eliminating avoidance would have sacrificed for"
              " nothing.\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return run_main(argc, argv, kOptions, study);
}
