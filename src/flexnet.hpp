// Umbrella header: the full flexnet public API.
//
// flexnet reproduces "Characterization of Deadlocks in Interconnection
// Networks" (Warnakulasuriya & Pinkston, IPPS 1997): a flit-level k-ary
// n-cube simulator with true deadlock detection (knots in channel wait-for
// graphs), deadlock characterization, and Disha-style recovery.
//
// Typical use:
//   flexnet::ExperimentConfig cfg;             // paper defaults
//   cfg.sim.routing = flexnet::RoutingKind::TFAR;
//   cfg.traffic.load = 0.6;
//   auto result = flexnet::run_experiment(cfg);
//   std::cout << result.window.normalized_deadlocks << '\n';
#pragma once

#include "core/cwg.hpp"          // IWYU pragma: export
#include "core/cycles.hpp"       // IWYU pragma: export
#include "core/detector.hpp"     // IWYU pragma: export
#include "core/dot.hpp"          // IWYU pragma: export
#include "core/graph.hpp"        // IWYU pragma: export
#include "core/knot.hpp"         // IWYU pragma: export
#include "core/pwg.hpp"          // IWYU pragma: export
#include "core/recovery.hpp"     // IWYU pragma: export
#include "core/timeout.hpp"      // IWYU pragma: export
#include "core/scc.hpp"          // IWYU pragma: export
#include "exp/cli.hpp"           // IWYU pragma: export
#include "exp/experiment.hpp"    // IWYU pragma: export
#include "exp/report.hpp"        // IWYU pragma: export
#include "exp/sweep.hpp"         // IWYU pragma: export
#include "metrics/metrics.hpp"   // IWYU pragma: export
#include "obs/histogram.hpp"     // IWYU pragma: export
#include "obs/obs.hpp"           // IWYU pragma: export
#include "routing/dateline.hpp"  // IWYU pragma: export
#include "routing/dor.hpp"       // IWYU pragma: export
#include "routing/duato.hpp"     // IWYU pragma: export
#include "routing/routing.hpp"   // IWYU pragma: export
#include "routing/selection.hpp" // IWYU pragma: export
#include "routing/table.hpp"     // IWYU pragma: export
#include "routing/tfar.hpp"      // IWYU pragma: export
#include "routing/turnmodel.hpp" // IWYU pragma: export
#include "sim/network.hpp"       // IWYU pragma: export
#include "snapshot/corpus.hpp"   // IWYU pragma: export
#include "snapshot/snapshot.hpp" // IWYU pragma: export
#include "telemetry/heatmap.hpp"   // IWYU pragma: export
#include "telemetry/interval.hpp"  // IWYU pragma: export
#include "telemetry/manifest.hpp"  // IWYU pragma: export
#include "telemetry/profiler.hpp"  // IWYU pragma: export
#include "telemetry/telemetry.hpp" // IWYU pragma: export
#include "topo/factory.hpp"        // IWYU pragma: export
#include "topo/generators.hpp"     // IWYU pragma: export
#include "topo/graph_topology.hpp" // IWYU pragma: export
#include "topo/topo_file.hpp"      // IWYU pragma: export
#include "topo/topology.hpp"       // IWYU pragma: export
#include "topo/torus.hpp"          // IWYU pragma: export
#include "trace/forensics.hpp"   // IWYU pragma: export
#include "trace/sinks.hpp"       // IWYU pragma: export
#include "trace/trace.hpp"       // IWYU pragma: export
#include "traffic/injection.hpp" // IWYU pragma: export
#include "traffic/traffic.hpp"   // IWYU pragma: export
#include "util/binio.hpp"        // IWYU pragma: export
#include "util/csv.hpp"          // IWYU pragma: export
#include "util/json.hpp"         // IWYU pragma: export
#include "util/options.hpp"      // IWYU pragma: export
#include "util/parallel.hpp"     // IWYU pragma: export
#include "util/rng.hpp"          // IWYU pragma: export
#include "util/stats.hpp"        // IWYU pragma: export
#include "workload/pace.hpp"       // IWYU pragma: export
#include "workload/replay.hpp"     // IWYU pragma: export
#include "workload/trace_file.hpp" // IWYU pragma: export
#include "workload/workload.hpp"   // IWYU pragma: export
