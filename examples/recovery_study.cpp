// Recovery study: how victim selection and detection cadence shape the cost
// of deadlock recovery on a deadlock-heavy configuration (DOR, 1 VC, beyond
// saturation). The paper breaks deadlocks "immediately upon detection" every
// 50 cycles with a Disha-style removal; this example quantifies what happens
// when the detector runs slower or chooses victims differently.
//
//   ./recovery_study [--load X] [--k N] [--measure C]
#include <cstdio>
#include <string_view>

#include "flexnet.hpp"

namespace {

using namespace flexnet;

// Every option this example reads.
constexpr std::string_view kOptions[] = {"k", "load", "measure"};

int study(const Options& opts) {
  ExperimentConfig base;
  base.sim.routing = RoutingKind::DOR;
  base.sim.vcs = 1;
  base.sim.topology.k = static_cast<int>(opts.get_int("k", 16));
  base.traffic.load = opts.get_double("load", 0.4);
  base.run.warmup = 3000;
  base.run.measure = opts.get_int("measure", 10000);

  std::printf("Recovery study: DOR, 1 VC, %d-ary 2-cube, load %.2f\n\n",
              base.sim.topology.k, base.traffic.load);

  std::printf("%-22s %-10s %10s %10s %10s %10s %10s\n", "victim policy",
              "interval", "deadlocks", "recovered", "delivered", "latency",
              "thruput");
  for (const Cycle interval : {Cycle{25}, Cycle{50}, Cycle{200}}) {
    for (const RecoveryKind recovery :
         {RecoveryKind::RemoveOldest, RecoveryKind::RemoveNewest,
          RecoveryKind::RemoveMostResources, RecoveryKind::RemoveRandom}) {
      ExperimentConfig cfg = base;
      cfg.detector.interval = interval;
      cfg.detector.recovery = recovery;
      const ExperimentResult r = run_experiment(cfg);
      std::printf("%-22s %-10lld %10lld %10lld %10lld %10.1f %10.4f\n",
                  std::string(to_string(recovery)).c_str(),
                  static_cast<long long>(interval),
                  static_cast<long long>(r.window.deadlocks),
                  static_cast<long long>(r.window.recovered),
                  static_cast<long long>(r.window.delivered),
                  r.window.avg_latency, r.window.throughput_flits_per_node);
    }
  }

  // What if we never recover? Deadlocks freeze rings permanently; the same
  // knots are re-counted at every detector pass and throughput decays.
  ExperimentConfig none = base;
  none.detector.recovery = RecoveryKind::None;
  const ExperimentResult frozen = run_experiment(none);
  std::printf("%-22s %-10d %10lld %10lld %10lld %10.1f %10.4f\n", "None", 50,
              static_cast<long long>(frozen.window.deadlocks),
              static_cast<long long>(frozen.window.recovered),
              static_cast<long long>(frozen.window.delivered),
              frozen.window.avg_latency,
              frozen.window.throughput_flits_per_node);
  std::printf("\n(with RecoveryKind::None each frozen knot is re-counted every"
              " detector pass, so 'deadlocks' counts sightings, not events)\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return run_main(argc, argv, kOptions, study);
}
