// Command-line construction of experiment configurations, shared by the
// sweep_cli example and tests. Every knob of SimConfig / TrafficConfig /
// DetectorConfig / RunConfig is reachable by name.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "exp/experiment.hpp"
#include "util/options.hpp"

namespace flexnet {

/// Parse enum spellings (exact, as printed by to_string). Throws
/// std::invalid_argument on unknown names.
[[nodiscard]] RoutingKind parse_routing(std::string_view name);
[[nodiscard]] SelectionKind parse_selection(std::string_view name);
[[nodiscard]] TrafficKind parse_traffic(std::string_view name);
[[nodiscard]] RecoveryKind parse_recovery(std::string_view name);
/// "torus" | "mesh" | "fullmesh" | "dragonfly" | "random" | "file:<path>"
/// (lowercase family names; "mesh" maps to Torus with wrap=false).
[[nodiscard]] TopoKind parse_topology(std::string_view name);

/// Builds a full experiment configuration from options:
///   --topology torus|mesh|fullmesh|dragonfly|random|file:<path>
///   --nodes --degree --df-routers --df-globals --topo-seed --route-table
///   --k --n --uni --mesh --vcs --buffer --ivcs --evcs --length
///   --short-length --short-fraction --routing --selection --misroutes
///   --faults --queue-limit --seed
///   --traffic --load --hotspots --hotspot-fraction --hybrid --hybrid-fraction
///   --interval --recovery --no-quiescence --count-cycles --cycle-cap
///   --warmup --measure --check --step-dense
///   --trace-ring N --trace-chrome FILE --trace-bin FILE --forensics
///   --forensics-dot PREFIX
///   --telemetry --telemetry-interval N --telemetry-ring N
///   --telemetry-json FILE --heatmap FILE --profile --heatmap-ascii
/// Unspecified options keep the paper's defaults. Throws
/// std::invalid_argument naming the option for any option sweep_cli does
/// not read, for --interval < 1, --warmup < 0 and --measure < 1.
[[nodiscard]] ExperimentConfig experiment_from_options(const Options& opts);

/// Parses a comma-separated load list ("0.1,0.2,0.5") or, when absent, an
/// even sweep from --load-min/--load-max/--load-steps.
[[nodiscard]] std::vector<double> loads_from_options(const Options& opts);

}  // namespace flexnet
