#include "exp/cli.hpp"

#include <cerrno>
#include <cstdlib>
#include <limits>
#include <stdexcept>

#include "exp/sweep.hpp"

namespace flexnet {

namespace {
[[noreturn]] void unknown(const char* what, std::string_view name) {
  throw std::invalid_argument(std::string("unknown ") + what + ": " +
                              std::string(name));
}

// Every option sweep_cli reads: experiment_from_options, loads_from_options
// and the outputs sweep_cli writes itself (--csv, --label,
// --route-table-dump; --profile and --heatmap-ascii are read by both).
constexpr std::string_view kSweepOptions[] = {
    "topology", "k", "n", "uni", "mesh", "nodes", "degree", "df-routers",
    "df-globals", "topo-seed", "route-table", "vcs", "buffer", "ivcs", "evcs",
    "length", "short-length", "short-fraction", "routing", "selection",
    "misroutes", "faults", "queue-limit", "seed", "traffic", "load",
    "hotspots", "hotspot-fraction", "hybrid", "hybrid-fraction", "workload",
    "capture-trace", "interval", "recovery", "no-quiescence", "count-cycles",
    "cycle-cap", "livelock-limit", "detector-full-rebuild", "warmup",
    "measure", "check", "step-dense", "shards", "trace-ring", "trace-chrome",
    "trace-bin", "forensics", "forensics-dot", "telemetry",
    "telemetry-interval", "telemetry-ring", "telemetry-json", "heatmap",
    "metrics-collect", "metrics", "metrics-interval", "warn-threshold",
    "warn-stall-ref", "checkpoint-every", "checkpoint-dir", "resume",
    "capture-deadlocks", "capture-limit", "profile", "heatmap-ascii",
    "loads", "load-min", "load-max", "load-steps", "csv", "label",
    "route-table-dump"};
}  // namespace

RoutingKind parse_routing(std::string_view name) {
  for (const RoutingKind kind :
       {RoutingKind::DOR, RoutingKind::TFAR, RoutingKind::DatelineDOR,
        RoutingKind::DuatoTFAR, RoutingKind::NegativeFirst,
        RoutingKind::TableMin, RoutingKind::TableUpDown}) {
    if (name == to_string(kind)) return kind;
  }
  unknown("routing", name);
}

SelectionKind parse_selection(std::string_view name) {
  for (const SelectionKind kind :
       {SelectionKind::PreferStraight, SelectionKind::Random,
        SelectionKind::LowestIndex}) {
    if (name == to_string(kind)) return kind;
  }
  unknown("selection", name);
}

TrafficKind parse_traffic(std::string_view name) {
  for (const TrafficKind kind :
       {TrafficKind::Uniform, TrafficKind::BitReversal, TrafficKind::Transpose,
        TrafficKind::PerfectShuffle, TrafficKind::HotSpot, TrafficKind::Tornado,
        TrafficKind::NearestNeighbor}) {
    if (name == to_string(kind)) return kind;
  }
  unknown("traffic", name);
}

RecoveryKind parse_recovery(std::string_view name) {
  for (const RecoveryKind kind :
       {RecoveryKind::None, RecoveryKind::RemoveOldest, RecoveryKind::RemoveNewest,
        RecoveryKind::RemoveMostResources, RecoveryKind::RemoveRandom}) {
    if (name == to_string(kind)) return kind;
  }
  unknown("recovery", name);
}

TopoKind parse_topology(std::string_view name) {
  if (name == "torus" || name == "mesh") return TopoKind::Torus;
  if (name == "fullmesh") return TopoKind::FullMesh;
  if (name == "dragonfly") return TopoKind::Dragonfly;
  if (name == "random") return TopoKind::RandomIrregular;
  if (name.substr(0, 5) == "file:") return TopoKind::File;
  unknown("topology (torus|mesh|fullmesh|dragonfly|random|file:<path>)", name);
}

ExperimentConfig experiment_from_options(const Options& opts) {
  opts.reject_unknown(kSweepOptions);
  ExperimentConfig cfg;

  // --topology selects the family; "mesh" is torus shorthand for wrap=false,
  // "file:<path>" loads a flexnet-topo-v1 file.
  const std::string topo_arg = opts.get("topology", "torus");
  cfg.sim.topo_kind = parse_topology(topo_arg);
  if (cfg.sim.topo_kind == TopoKind::File) {
    cfg.sim.topo_file = topo_arg.substr(5);
  }

  cfg.sim.topology.k = static_cast<int>(opts.get_int("k", cfg.sim.topology.k));
  cfg.sim.topology.n = static_cast<int>(opts.get_int("n", cfg.sim.topology.n));
  cfg.sim.topology.bidirectional = !opts.get_bool("uni", false);
  cfg.sim.topology.wrap = topo_arg != "mesh" && !opts.get_bool("mesh", false);

  cfg.sim.topo_nodes =
      static_cast<int>(opts.get_int("nodes", cfg.sim.topo_nodes));
  cfg.sim.topo_degree =
      static_cast<int>(opts.get_int("degree", cfg.sim.topo_degree));
  cfg.sim.topo_df_routers =
      static_cast<int>(opts.get_int("df-routers", cfg.sim.topo_df_routers));
  cfg.sim.topo_df_globals =
      static_cast<int>(opts.get_int("df-globals", cfg.sim.topo_df_globals));
  cfg.sim.topo_seed =
      static_cast<std::uint64_t>(opts.get_int("topo-seed", 1));
  cfg.sim.route_table_file = opts.get("route-table");

  cfg.sim.vcs = static_cast<int>(opts.get_int("vcs", cfg.sim.vcs));
  cfg.sim.buffer_depth =
      static_cast<int>(opts.get_int("buffer", cfg.sim.buffer_depth));
  cfg.sim.injection_vcs =
      static_cast<int>(opts.get_int("ivcs", cfg.sim.injection_vcs));
  cfg.sim.ejection_vcs =
      static_cast<int>(opts.get_int("evcs", cfg.sim.ejection_vcs));
  cfg.sim.message_length =
      static_cast<int>(opts.get_int("length", cfg.sim.message_length));
  cfg.sim.short_message_length = static_cast<int>(
      opts.get_int("short-length", cfg.sim.short_message_length));
  cfg.sim.short_message_fraction =
      opts.get_double("short-fraction", cfg.sim.short_message_fraction);

  // The five torus relations cannot route an arbitrary graph, so non-torus
  // topologies default to the table-based deadlock-prone subject.
  cfg.sim.routing = parse_routing(opts.get(
      "routing", cfg.sim.topo_kind == TopoKind::Torus ? "TFAR" : "TableMin"));
  cfg.sim.selection = parse_selection(opts.get("selection", "PreferStraight"));
  cfg.sim.max_misroutes =
      static_cast<int>(opts.get_int("misroutes", cfg.sim.max_misroutes));
  cfg.sim.link_fault_fraction =
      opts.get_double("faults", cfg.sim.link_fault_fraction);
  cfg.sim.source_queue_limit =
      static_cast<int>(opts.get_int("queue-limit", cfg.sim.source_queue_limit));
  cfg.sim.seed = static_cast<std::uint64_t>(opts.get_int("seed", 1));

  cfg.traffic.pattern = parse_traffic(opts.get("traffic", "Uniform"));
  cfg.traffic.load = opts.get_double("load", cfg.traffic.load);
  cfg.traffic.hotspot_nodes =
      static_cast<int>(opts.get_int("hotspots", cfg.traffic.hotspot_nodes));
  cfg.traffic.hotspot_fraction =
      opts.get_double("hotspot-fraction", cfg.traffic.hotspot_fraction);
  cfg.traffic.hybrid_fraction =
      opts.get_double("hybrid-fraction", cfg.traffic.hybrid_fraction);
  if (opts.has("hybrid")) {
    cfg.traffic.hybrid_with = parse_traffic(opts.get("hybrid"));
  }

  // Arrival process: bernoulli (default) | trace:<path> | pace:<spec>, plus
  // an optional capture tap mirroring every generated message into a
  // replayable flexnet-trace-v1 file.
  if (opts.has("workload")) {
    cfg.workload = parse_workload_spec(opts.get("workload"));
  }
  cfg.workload.capture_path = opts.get("capture-trace");

  cfg.detector.interval = opts.get_int("interval", cfg.detector.interval);
  // DetectorConfig reads interval 0 as "never detect"; a sweep always does.
  if (cfg.detector.interval < 1) {
    throw std::invalid_argument("--interval must be >= 1");
  }
  cfg.detector.recovery = parse_recovery(opts.get("recovery", "RemoveOldest"));
  cfg.detector.require_quiescence = !opts.get_bool("no-quiescence", false);
  cfg.detector.count_total_cycles = opts.get_bool("count-cycles", false);
  cfg.detector.total_cycle_cap =
      opts.get_int("cycle-cap", cfg.detector.total_cycle_cap);
  cfg.detector.livelock_hop_limit = static_cast<int>(
      opts.get_int("livelock-limit", cfg.detector.livelock_hop_limit));
  cfg.detector.full_rebuild = opts.get_bool("detector-full-rebuild", false);

  cfg.run.warmup = opts.get_int("warmup", cfg.run.warmup);
  if (cfg.run.warmup < 0) throw std::invalid_argument("--warmup must be >= 0");
  cfg.run.measure = opts.get_int("measure", cfg.run.measure);
  // An empty window has no throughput to report.
  if (cfg.run.measure < 1) {
    throw std::invalid_argument("--measure must be >= 1");
  }
  cfg.run.check_invariants = opts.get_bool("check", false);
  cfg.run.step_dense = opts.get_bool("step-dense", false);

  // --shards N|auto selects the parallel stepping engine. Strict parse: only
  // "auto" or an all-digit positive count is accepted ("8x", "", "-2" are
  // errors, not silent fallbacks). "auto" resolves at construction to
  // min(worker_thread_count(), nodes); worker_thread_count() honors
  // FLEXNET_THREADS, so the explicit flag outranks the environment.
  if (opts.has("shards")) {
    const std::string shards_arg = opts.get("shards");
    if (shards_arg == "auto") {
      cfg.run.shards = -1;
    } else {
      if (shards_arg.empty() ||
          shards_arg.find_first_not_of("0123456789") != std::string::npos) {
        throw std::invalid_argument("--shards must be a positive integer or "
                                    "'auto', got: " + shards_arg);
      }
      errno = 0;
      char* end = nullptr;
      const long long value = std::strtoll(shards_arg.c_str(), &end, 10);
      if (errno == ERANGE || *end != '\0' || value < 1 ||
          value > std::numeric_limits<int>::max()) {
        throw std::invalid_argument("--shards out of range: " + shards_arg);
      }
      cfg.run.shards = static_cast<int>(value);
    }
    if (cfg.run.step_dense) {
      throw std::invalid_argument(
          "--shards cannot combine with --step-dense (the dense sweep is the "
          "one-shard event core's oracle)");
    }
  }

  const long long ring = opts.get_int("trace-ring", 0);
  if (ring < 0) throw std::invalid_argument("--trace-ring must be >= 0");
  cfg.trace.ring_capacity = static_cast<std::size_t>(ring);
  cfg.trace.chrome_path = opts.get("trace-chrome");
  cfg.trace.binary_path = opts.get("trace-bin");
  cfg.trace.forensics = opts.get_bool("forensics", false);
  cfg.trace.forensics_dot_prefix = opts.get("forensics-dot");
  if (!cfg.trace.forensics_dot_prefix.empty()) cfg.trace.forensics = true;

  cfg.telemetry.collect = opts.get_bool("telemetry", false);
  const long long telemetry_interval =
      opts.get_int("telemetry-interval", cfg.telemetry.interval);
  if (telemetry_interval < 1) {
    throw std::invalid_argument("--telemetry-interval must be >= 1");
  }
  cfg.telemetry.interval = telemetry_interval;
  const long long telemetry_ring = opts.get_int(
      "telemetry-ring", static_cast<long long>(cfg.telemetry.ring_capacity));
  if (telemetry_ring < 1) {
    throw std::invalid_argument("--telemetry-ring must be >= 1");
  }
  cfg.telemetry.ring_capacity = static_cast<std::size_t>(telemetry_ring);
  cfg.telemetry.manifest_path = opts.get("telemetry-json");
  cfg.telemetry.heatmap_csv_path = opts.get("heatmap");

  cfg.obs.collect = opts.get_bool("metrics-collect", false);
  cfg.obs.metrics_path = opts.get("metrics");
  const long long metrics_interval =
      opts.get_int("metrics-interval", cfg.obs.interval);
  if (metrics_interval < 1) {
    throw std::invalid_argument("--metrics-interval must be >= 1");
  }
  cfg.obs.interval = metrics_interval;
  cfg.obs.warn_threshold =
      opts.get_double("warn-threshold", cfg.obs.warn_threshold);
  if (cfg.obs.warn_threshold <= 0) {
    throw std::invalid_argument("--warn-threshold must be > 0");
  }
  const long long stall_ref = opts.get_int("warn-stall-ref", cfg.obs.stall_ref);
  if (stall_ref < 1) {
    throw std::invalid_argument("--warn-stall-ref must be >= 1");
  }
  cfg.obs.stall_ref = stall_ref;

  const long long checkpoint_every = opts.get_int("checkpoint-every", 0);
  if (checkpoint_every < 0) {
    throw std::invalid_argument("--checkpoint-every must be >= 0");
  }
  cfg.snapshot.checkpoint_every = checkpoint_every;
  cfg.snapshot.checkpoint_dir =
      opts.get("checkpoint-dir", cfg.snapshot.checkpoint_dir);
  cfg.snapshot.resume_path = opts.get("resume");
  cfg.snapshot.capture_dir = opts.get("capture-deadlocks");
  cfg.snapshot.capture_limit = static_cast<int>(
      opts.get_int("capture-limit", cfg.snapshot.capture_limit));
  // Display-only flags still need the collectors running.
  if (opts.get_bool("profile", false) || opts.get_bool("heatmap-ascii", false)) {
    cfg.telemetry.collect = true;
  }

  cfg.sim.validate();
  return cfg;
}

std::vector<double> loads_from_options(const Options& opts) {
  if (opts.has("loads")) {
    std::vector<double> loads;
    const std::string list = opts.get("loads");
    const char* cursor = list.c_str();
    while (*cursor != '\0') {
      char* end = nullptr;
      const double value = std::strtod(cursor, &end);
      if (end == cursor) {
        throw std::invalid_argument("malformed --loads list: " + list);
      }
      loads.push_back(value);
      cursor = (*end == ',') ? end + 1 : end;
    }
    if (loads.empty()) throw std::invalid_argument("--loads list is empty");
    return loads;
  }
  const double lo = opts.get_double("load-min", 0.05);
  const double hi = opts.get_double("load-max", 0.9);
  const int steps = static_cast<int>(opts.get_int("load-steps", 8));
  return linspace(lo, hi, steps);
}

}  // namespace flexnet
