// sweep_cli: run any flexnet experiment sweep from the command line and get
// the paper-style table plus CSV. Every configuration knob is exposed; see
// src/exp/cli.hpp for the full option list.
//
// Examples:
//   ./sweep_cli --routing DOR --vcs 1 --uni --loads 0.1,0.2,0.4
//   ./sweep_cli --routing TFAR --vcs 2 --traffic Transpose --load-steps 6
//   ./sweep_cli --routing TFAR --faults 0.1 --count-cycles --csv out.csv
//   ./sweep_cli --routing DOR --vcs 1 --uni --loads 0.6
//       --trace-chrome trace.json --forensics     # chrome://tracing + forensics
//   ./sweep_cli --routing TFAR --loads 0.3,0.6 --telemetry-json run.json
//       --heatmap heat.csv --heatmap-ascii --profile  # telemetry manifests
//   ./sweep_cli --routing DOR --uni --loads 0.8 --metrics run.ndjson
//       --metrics-interval 50                # streaming observability NDJSON
//   ./sweep_cli --routing DOR --uni --loads 0.8 --checkpoint-every 5000
//       --checkpoint-dir ckpt                # periodic resumable checkpoints
//   ./sweep_cli --resume ckpt.p0/ckpt-15000.snap   # continue that run
//   ./sweep_cli --routing DOR --uni --loads 0.8 --capture-deadlocks corpus
//       --capture-limit 8                    # dump deduped knot snapshots
//   ./sweep_cli --routing TFAR --loads 0.5 --interval 1
//       --detector-full-rebuild              # oracle: rebuild CWG every pass
//   ./sweep_cli --routing DOR --loads 0.2 --step-dense
//                                            # oracle: dense per-cycle sweep
//   ./sweep_cli --routing TFAR --k 32 --n 3 --loads 0.4 --shards auto
//                                            # 32k routers, parallel stepping
//   ./sweep_cli --routing DOR --loads 0.5 --shards 8
//       # deterministic: byte-identical to the default engine for any count.
//       # --shards outranks FLEXNET_THREADS ('auto' = that thread count,
//       # capped at the node count); combining with --step-dense is an error.
//   ./sweep_cli --topology file:examples/topologies/irregular-16.topo
//       --loads 0.6 --capture-deadlocks corpus  # irregular network, TableMin
//   ./sweep_cli --topology dragonfly --df-routers 8 --df-globals 1
//       --routing TableUpDown --loads 0.4    # deadlock-free any-topology
//   ./sweep_cli --topology random --nodes 24 --degree 3 --topo-seed 7
//       --route-table-dump tables.rt --loads 0.3  # dump the routing tables
//   ./sweep_cli --routing DOR --loads 0.3 --capture-trace run.trace
//                                            # record the arrival stream
//   ./sweep_cli --workload trace:run.trace --routing DOR --loads 0.3
//                                            # replay it byte-identically
//   ./sweep_cli --routing DOR --uni --vcs 1 --length 8 --loads 0.08
//       --workload 'pace:burst(200,0.2,4)' --forensics  # bursty workload
#include <fstream>
#include <iostream>

#include "exp/cli.hpp"
#include "flexnet.hpp"
#include "routing/table.hpp"

int main(int argc, char** argv) {
  using namespace flexnet;
  std::string error;
  const auto opts = Options::parse(argc, argv, &error);
  if (!opts) {
    std::cerr << "argument error: " << error << '\n';
    return 1;
  }

  try {
    const ExperimentConfig base = experiment_from_options(*opts);

    // Resuming is a single-run operation: the snapshot fixes the load and
    // every sim parameter, so the sweep collapses to one point.
    if (!base.snapshot.resume_path.empty()) {
      Simulation sim(base);
      std::cout << "flexnet resume: " << base.snapshot.resume_path
                << " @ cycle " << sim.network().now() << " of "
                << (sim.config().run.warmup + sim.config().run.measure)
                << '\n';
      const ExperimentResult result = sim.run();
      const std::vector<ExperimentResult> results{result};
      print_load_series(std::cout, "deadlocks", results, deadlock_columns());
      std::cout << '\n';
      print_load_series(std::cout, "throughput", results, throughput_columns());
      if (!base.telemetry.manifest_path.empty()) {
        std::cout << "\nTelemetry manifest written to "
                  << base.telemetry.manifest_path << '\n';
      }
      if (!result.obs.metrics_path.empty()) {
        std::cout << "Metrics stream appended to " << result.obs.metrics_path
                  << " (" << result.obs.samples << " sample(s), "
                  << result.obs.warnings << " warning(s))\n";
      }
      if (result.deadlocks_captured > 0) {
        std::cout << result.deadlocks_captured << " deadlock snapshot(s) in "
                  << base.snapshot.capture_dir << '\n';
      }
      return 0;
    }

    // --route-table-dump FILE: build the network once, write its routing
    // tables as flexnet-rtable-v1, and exit (no sweep).
    if (opts->has("route-table-dump")) {
      Simulation sim(base);
      const auto* table =
          dynamic_cast<const TableRouting*>(&sim.network().routing_algorithm());
      if (table == nullptr) {
        throw std::runtime_error(
            "--route-table-dump needs --routing TableMin or TableUpDown");
      }
      const std::string path = opts->get("route-table-dump");
      std::ofstream out(path);
      if (!out) throw std::runtime_error("cannot open " + path);
      table->dump(out);
      std::cout << "routing tables (" << table->name() << ", "
                << sim.network().topology().name() << ") written to " << path
                << '\n';
      return 0;
    }

    const std::vector<double> loads = loads_from_options(*opts);
    // Read before the sweep, so a bare --csv fails before any work is done.
    const std::string csv_path = opts->get("csv");

    std::cout << "flexnet sweep: " << to_string(base.sim.routing) << ", "
              << base.sim.vcs << " VC(s), ";
    if (base.sim.topo_kind == TopoKind::Torus) {
      std::cout << base.sim.topology.k << "-ary " << base.sim.topology.n
                << "-cube (" << (base.sim.topology.wrap ? "torus" : "mesh")
                << ", " << (base.sim.topology.bidirectional ? "bi" : "uni")
                << "), ";
    } else {
      std::cout << to_string(base.sim.topo_kind);
      if (!base.sim.topo_file.empty()) std::cout << ' ' << base.sim.topo_file;
      std::cout << ", ";
    }
    std::cout << to_string(base.traffic.pattern) << " traffic, "
              << loads.size() << " load points\n\n";

    const auto results = sweep_loads(base, loads);

    print_load_series(std::cout, "deadlocks", results, deadlock_columns());
    std::cout << '\n';
    print_load_series(std::cout, "set sizes", results, set_size_columns());
    std::cout << '\n';
    print_load_series(std::cout, "throughput", results, throughput_columns());
    if (base.detector.count_total_cycles) {
      std::cout << '\n';
      print_load_series(std::cout, "cycles", results, cycle_columns());
    }

    if (opts->has("csv")) {
      std::ofstream out(csv_path);
      if (!out) {
        throw std::runtime_error("cannot open CSV output file: " + csv_path);
      }
      write_results_csv(out, results, opts->get("label", "sweep"));
      std::cout << "\nCSV written to " << csv_path << '\n';
    }

    if (opts->get_bool("heatmap-ascii", false)) {
      for (const ExperimentResult& r : results) {
        if (r.telemetry.heatmap_ascii.empty()) continue;
        std::cout << "\n== traversal heatmap @ load " << r.load << " ==\n"
                  << r.telemetry.heatmap_ascii;
      }
    }
    if (opts->get_bool("profile", false)) {
      for (const ExperimentResult& r : results) {
        if (r.telemetry.profile_table.empty()) continue;
        std::cout << "\n@ load " << r.load << '\n' << r.telemetry.profile_table;
      }
    }
    if (!base.telemetry.manifest_path.empty()) {
      std::cout << "\nTelemetry manifest(s) written to "
                << base.telemetry.manifest_path
                << (loads.size() > 1 ? " (per-point .pN suffix)" : "") << '\n';
    }
    if (!base.telemetry.heatmap_csv_path.empty()) {
      std::cout << "Heatmap CSV written to " << base.telemetry.heatmap_csv_path
                << (loads.size() > 1 ? " (per-point .pN suffix)" : "") << '\n';
    }
    if (!base.obs.metrics_path.empty()) {
      std::int64_t warnings = 0;
      for (const ExperimentResult& r : results) warnings += r.obs.warnings;
      std::cout << "Metrics stream(s) written to " << base.obs.metrics_path
                << (loads.size() > 1 ? " (per-point .pN suffix)" : "") << ", "
                << warnings << " deadlock warning(s) — tail with "
                << "tools/metrics_tail\n";
    }

    if (!base.snapshot.capture_dir.empty()) {
      int total = 0;
      for (const ExperimentResult& r : results) total += r.deadlocks_captured;
      std::cout << '\n' << total << " deadlock snapshot(s) captured under "
                << base.snapshot.capture_dir
                << (loads.size() > 1 ? " (per-point .pN suffix)" : "") << '\n';
    }

    if (base.trace.forensics) {
      for (const ExperimentResult& r : results) {
        if (r.forensics.empty()) continue;
        std::cout << "\n== forensics @ load " << r.load << " ("
                  << r.forensics.size() << " deadlock(s) retained) ==\n";
        for (const ForensicsReport& report : r.forensics) {
          std::cout << '\n' << format_forensics_report(report);
        }
      }
    }
    if (!base.trace.chrome_path.empty()) {
      std::cout << "\nChrome trace written to " << base.trace.chrome_path
                << (loads.size() > 1 ? " (per-point .pN suffix)" : "")
                << " — load it in chrome://tracing or ui.perfetto.dev\n";
    }
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
  return 0;
}
