// Deadlock anatomy: runs a deadlock-prone configuration with recovery
// disabled, waits for the first *true* (quiescent) deadlock, and dissects it
// the way the paper's Section 2 figures do: the knot's virtual channels, the
// deadlock set with each message's held chain and request set, the resource
// set, dependent messages, and the knot cycle density with the actual cycles.
//
// The run is traced through an always-on ring buffer, so the dissection ends
// with a *formation* forensics report: when each deadlocked message last made
// progress and the order their blocked episodes closed the knot.
//
//   ./deadlock_anatomy [--routing NAME] [--vcs N] [--load X] [--k N]
//                      [--uni] [--seed S] [--max-cycles C] [--dot FILE]
//                      [--trace-chrome FILE] [--ring N]
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>

#include "flexnet.hpp"

namespace {

using namespace flexnet;

// Every option this example reads.
constexpr std::string_view kOptions[] = {
    "routing", "vcs", "k", "uni", "seed", "load", "max-cycles", "ring",
    "dot", "trace-chrome"};

std::string describe_vc(const Network& net, VcId vc_id) {
  const VcState& vc = net.vc(vc_id);
  const PhysChannel& pc = net.phys(vc.channel);
  const Coordinates& coords = torus_topology(net.topology()).coordinates();
  char buf[96];
  switch (pc.kind) {
    case ChannelKind::Injection:
      std::snprintf(buf, sizeof(buf), "vc%-5d inj@(%d,%d)", vc_id,
                    coords.coordinate(pc.src, 0), coords.coordinate(pc.src, 1));
      break;
    case ChannelKind::Ejection:
      std::snprintf(buf, sizeof(buf), "vc%-5d ej@(%d,%d)", vc_id,
                    coords.coordinate(pc.src, 0), coords.coordinate(pc.src, 1));
      break;
    case ChannelKind::Network:
      std::snprintf(buf, sizeof(buf), "vc%-5d (%d,%d)->(%d,%d) d%d%s.%d",
                    vc_id, coords.coordinate(pc.src, 0),
                    coords.coordinate(pc.src, 1), coords.coordinate(pc.dst, 0),
                    coords.coordinate(pc.dst, 1), pc.dim,
                    pc.dir > 0 ? "+" : "-", vc.id - pc.first_vc);
      break;
  }
  return buf;
}

int hunt(const Options& opts) {
  ExperimentConfig cfg;
  cfg.sim.routing = parse_routing(opts.get("routing", "DOR"));
  cfg.sim.vcs = static_cast<int>(opts.get_int("vcs", 1));
  cfg.sim.topology.k = static_cast<int>(opts.get_int("k", 16));
  cfg.sim.topology.bidirectional = !opts.get_bool("uni", false);
  cfg.sim.seed = static_cast<std::uint64_t>(opts.get_int("seed", 1));
  cfg.traffic.load = opts.get_double("load", 0.5);
  cfg.detector.recovery = RecoveryKind::None;  // keep the specimen intact
  const auto max_cycles =
      static_cast<std::int64_t>(opts.get_int("max-cycles", 100000));
  const long long ring_events = opts.get_int("ring", 1 << 16);
  if (ring_events < 0) throw std::invalid_argument("--ring must be >= 0");

  std::printf("Hunting for a true deadlock: %s, %d VC(s), %d-ary 2-cube (%s), "
              "load %.2f...\n",
              std::string(to_string(cfg.sim.routing)).c_str(), cfg.sim.vcs,
              cfg.sim.topology.k,
              cfg.sim.topology.bidirectional ? "bi" : "uni", cfg.traffic.load);

  Simulation sim(cfg);
  Network& net = sim.network();

  // Always-on trace ring so the eventual deadlock comes with its formation
  // history; optional Chrome trace for the whole hunt.
  Tracer tracer;
  RingBufferSink ring(static_cast<std::size_t>(ring_events));
  tracer.add_sink(&ring);
  std::ofstream chrome_file;
  std::unique_ptr<ChromeTraceSink> chrome;
  if (opts.has("trace-chrome")) {
    chrome_file.open(opts.get("trace-chrome"), std::ios::binary);
    chrome = std::make_unique<ChromeTraceSink>(chrome_file);
    tracer.add_sink(chrome.get());
  }
  NetworkHooks hooks = net.hooks();  // keep whatever Simulation installed
  hooks.tracer = &tracer;
  net.install_hooks(hooks);
  DeadlockForensics forensics(&ring);

  for (Cycle t = 0; t < 300000; ++t) {
    sim.injection().tick(net);
    net.step();
    if (net.now() % 50 != 0) continue;

    const Cwg cwg = Cwg::from_network(net);
    const std::vector<Knot> knots = find_knots(cwg);
    for (const Knot& knot : knots) {
      const bool quiescent =
          std::all_of(knot.deadlock_set.begin(), knot.deadlock_set.end(),
                      [&](MessageId id) { return net.message_immobile(id); });
      if (!quiescent) continue;

      const CycleEnumeration density =
          knot_cycle_density(cwg, knot, max_cycles, 16);

      std::printf("\n=== TRUE DEADLOCK at cycle %lld ===\n",
                  static_cast<long long>(net.now()));
      std::printf("knot: %zu VCs | deadlock set: %zu messages | resource set: "
                  "%zu VCs | dependent: %zu | knot cycle density: %lld%s -> "
                  "%s deadlock\n",
                  knot.knot_vcs.size(), knot.deadlock_set.size(),
                  knot.resource_set.size(), knot.dependent_messages.size(),
                  static_cast<long long>(density.count),
                  density.capped ? "+ (capped)" : "",
                  density.count == 1 ? "SINGLE-CYCLE" : "MULTI-CYCLE");

      std::printf("\nknot virtual channels:\n");
      for (const VcId vc : knot.knot_vcs) {
        std::printf("  %s  owned by m%lld\n", describe_vc(net, vc).c_str(),
                    static_cast<long long>(cwg.owner_of(vc)));
      }

      std::printf("\ndeadlock set (held chain -> requests):\n");
      for (const MessageId id : knot.deadlock_set) {
        const Message& m = net.message(id);
        const Coordinates& coords = torus_topology(net.topology()).coordinates();
        std::printf("  m%-6lld (%d,%d)->(%d,%d) len %d, blocked since %lld\n",
                    static_cast<long long>(id), coords.coordinate(m.src, 0),
                    coords.coordinate(m.src, 1), coords.coordinate(m.dst, 0),
                    coords.coordinate(m.dst, 1), m.length,
                    static_cast<long long>(m.blocked_since));
        for (const VcId held : m.held) {
          std::printf("      holds    %s\n", describe_vc(net, held).c_str());
        }
        for (const VcId want : m.request_set) {
          std::printf("      requests %s (owned by m%lld)\n",
                      describe_vc(net, want).c_str(),
                      static_cast<long long>(net.vc(want).owner));
        }
      }

      if (!knot.dependent_messages.empty()) {
        std::printf("\ndependent messages (blocked on the deadlock, but "
                    "removing them would NOT resolve it):\n");
        for (const MessageId id : knot.dependent_messages) {
          std::printf("  m%lld\n", static_cast<long long>(id));
        }
      }

      if (!density.cycles.empty()) {
        std::printf("\nfirst %zu cycle(s) of the knot:\n",
                    density.cycles.size());
        for (const auto& cycle : density.cycles) {
          std::printf("  ");
          for (const int vc : cycle) std::printf("vc%d -> ", vc);
          std::printf("vc%d\n", cycle.front());
        }
      }

      if (opts.has("dot")) {
        std::ofstream dot(opts.get("dot"));
        dot << cwg_to_dot(cwg, knots);
        std::printf("\nCWG written to %s (render: dot -Tsvg %s -o cwg.svg)\n",
                    opts.get("dot").c_str(), opts.get("dot").c_str());
      }

      Pcg32 rng(cfg.sim.seed);
      const MessageId victim =
          choose_victim(net, knot.deadlock_set, RecoveryKind::RemoveOldest, rng);

      const ForensicsReport& report =
          forensics.on_deadlock(net, cwg, knot, victim, density.count);
      std::printf("\n%s", format_forensics_report(report, &net).c_str());

      std::printf("\nBreaking it Disha-style: removing the oldest deadlock-set"
                  " message...\n");
      net.remove_message(victim);
      std::printf("removed m%lld; the survivors now drain.\n",
                  static_cast<long long>(victim));
      if (chrome) {
        tracer.flush();
        std::printf("Chrome trace written to %s (load in chrome://tracing)\n",
                    opts.get("trace-chrome").c_str());
      }
      return 0;
    }
  }
  std::printf("no true deadlock formed within the budget; raise --load.\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return run_main(argc, argv, kOptions, hunt);
}
