// Quickstart: run one simulation with the paper's default configuration and
// print throughput, congestion and deadlock statistics.
//
//   ./quickstart [--routing NAME] [--vcs N] [--load X] [--k N] [--n N]
//                [--uni] [--buffer D] [--ivcs N] [--evcs N] [--seed S]
//                [--queue L] [--warmup C] [--measure C]
#include <cstdio>
#include <string_view>

#include "flexnet.hpp"

namespace {

// Every option this example reads.
constexpr std::string_view kOptions[] = {
    "routing", "vcs", "buffer", "ivcs", "evcs", "k", "n",
    "uni", "seed", "queue", "load", "warmup", "measure"};

int quickstart(const flexnet::Options& opts) {
  flexnet::ExperimentConfig cfg;  // paper defaults: 16-ary 2-cube, bi, 1 VC
  cfg.sim.routing = flexnet::parse_routing(opts.get("routing", "TFAR"));
  cfg.sim.vcs = static_cast<int>(opts.get_int("vcs", 1));
  cfg.sim.buffer_depth = static_cast<int>(opts.get_int("buffer", 2));
  cfg.sim.injection_vcs = static_cast<int>(opts.get_int("ivcs", 1));
  cfg.sim.ejection_vcs = static_cast<int>(opts.get_int("evcs", 1));
  cfg.sim.topology.k = static_cast<int>(opts.get_int("k", 16));
  cfg.sim.topology.n = static_cast<int>(opts.get_int("n", 2));
  cfg.sim.topology.bidirectional = !opts.get_bool("uni", false);
  cfg.sim.seed = static_cast<std::uint64_t>(opts.get_int("seed", 1));
  cfg.sim.source_queue_limit = static_cast<int>(opts.get_int("queue", 4));
  cfg.traffic.load = opts.get_double("load", 0.6);
  cfg.run.warmup = opts.get_int("warmup", 5000);
  cfg.run.measure = opts.get_int("measure", 15000);

  std::printf("flexnet quickstart: %s, %d VC(s), %d-ary %d-cube (%s), load %.2f\n",
              std::string(flexnet::to_string(cfg.sim.routing)).c_str(),
              cfg.sim.vcs, cfg.sim.topology.k, cfg.sim.topology.n,
              cfg.sim.topology.bidirectional ? "bidirectional" : "unidirectional",
              cfg.traffic.load);

  const flexnet::ExperimentResult r = flexnet::run_experiment(cfg);
  const flexnet::WindowMetrics& w = r.window;

  std::printf("capacity            %.4f flits/node/cycle\n", r.capacity_flits_per_node);
  std::printf("offered / accepted  %.4f / %.4f flits/node/cycle (%s)\n",
              r.offered_flit_rate, w.throughput_flits_per_node,
              r.saturated ? "SATURATED" : "below saturation");
  std::printf("delivered           %lld messages (+%lld recovered)\n",
              static_cast<long long>(w.delivered),
              static_cast<long long>(w.recovered));
  std::printf("avg latency / hops  %.1f cycles / %.2f\n", w.avg_latency, w.avg_hops);
  std::printf("blocked (mean)      %.1f messages (%.1f%% of in-network)\n",
              w.blocked_messages.mean(), 100.0 * w.blocked_fraction.mean());
  std::printf("deadlocks           %lld (%.5f per delivered message)\n",
              static_cast<long long>(w.deadlocks), w.normalized_deadlocks);
  if (w.deadlocks > 0) {
    std::printf("  deadlock set size %.2f mean / %.0f max\n",
                w.deadlock_set_size.mean(), w.deadlock_set_size.max());
    std::printf("  resource set size %.2f mean / %.0f max\n",
                w.resource_set_size.mean(), w.resource_set_size.max());
    std::printf("  knot cycle density %.2f mean / %.0f max (%lld single-cycle, %lld multi-cycle)\n",
                w.knot_cycle_density.mean(), w.knot_cycle_density.max(),
                static_cast<long long>(w.single_cycle_deadlocks),
                static_cast<long long>(w.multi_cycle_deadlocks));
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return flexnet::run_main(argc, argv, kOptions, quickstart);
}
