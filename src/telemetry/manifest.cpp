#include "telemetry/manifest.hpp"

#include <ostream>

#include "exp/experiment.hpp"
#include "sim/message_class.hpp"
#include "sim/network.hpp"
#include "telemetry/telemetry.hpp"
#include "util/json.hpp"

namespace flexnet {

std::string_view build_git_sha() noexcept {
#ifdef FLEXNET_GIT_SHA
  return FLEXNET_GIT_SHA;
#else
  return "unknown";
#endif
}

namespace {

void write_stat(JsonWriter& json, std::string_view name,
                const RunningStat& stat) {
  json.key(name).begin_object();
  json.field("count", stat.count());
  json.field("mean", stat.mean());
  json.field("stddev", stat.stddev());
  json.field("min", stat.min());
  json.field("max", stat.max());
  json.end_object();
}

void write_config(JsonWriter& json, const ExperimentConfig& cfg) {
  json.key("config").begin_object();

  json.key("sim").begin_object();
  json.field("k", cfg.sim.topology.k);
  json.field("n", cfg.sim.topology.n);
  json.field("wrap", cfg.sim.topology.wrap);
  json.field("bidirectional", cfg.sim.topology.bidirectional);
  json.field("vcs", cfg.sim.vcs);
  json.field("buffer_depth", cfg.sim.buffer_depth);
  json.field("injection_vcs", cfg.sim.injection_vcs);
  json.field("ejection_vcs", cfg.sim.ejection_vcs);
  json.field("message_length", cfg.sim.message_length);
  json.field("short_message_fraction", cfg.sim.short_message_fraction);
  json.field("short_message_length", cfg.sim.short_message_length);
  json.field("routing", to_string(cfg.sim.routing));
  json.field("selection", to_string(cfg.sim.selection));
  json.field("max_misroutes", cfg.sim.max_misroutes);
  json.field("link_fault_fraction", cfg.sim.link_fault_fraction);
  json.field("source_queue_limit", cfg.sim.source_queue_limit);
  json.field("seed", static_cast<std::uint64_t>(cfg.sim.seed));
  json.field("topology", to_string(cfg.sim.topo_kind));
  if (!cfg.sim.topo_file.empty()) json.field("topo_file", cfg.sim.topo_file);
  if (!cfg.sim.route_table_file.empty()) {
    json.field("route_table_file", cfg.sim.route_table_file);
  }
  json.end_object();

  json.key("traffic").begin_object();
  json.field("pattern", to_string(cfg.traffic.pattern));
  json.field("load", cfg.traffic.load);
  json.field("hotspot_nodes", cfg.traffic.hotspot_nodes);
  json.field("hotspot_fraction", cfg.traffic.hotspot_fraction);
  json.field("hybrid_fraction", cfg.traffic.hybrid_fraction);
  json.field("hybrid_with", to_string(cfg.traffic.hybrid_with));
  json.end_object();

  // The arrival process. This block is the one place a capture run and its
  // replay legitimately differ; the CI replay check strips it before diffing.
  json.key("workload").begin_object();
  json.field("kind", to_string(cfg.workload.kind));
  if (!cfg.workload.trace_path.empty()) {
    json.field("trace", cfg.workload.trace_path);
  }
  if (!cfg.workload.pace_spec.empty()) {
    json.field("pace", cfg.workload.pace_spec);
  }
  if (!cfg.workload.capture_path.empty()) {
    json.field("capture", cfg.workload.capture_path);
  }
  json.end_object();

  json.key("detector").begin_object();
  json.field("interval", cfg.detector.interval);
  json.field("recovery", to_string(cfg.detector.recovery));
  json.field("require_quiescence", cfg.detector.require_quiescence);
  json.field("measure_knot_density", cfg.detector.measure_knot_density);
  json.field("count_total_cycles", cfg.detector.count_total_cycles);
  json.field("livelock_hop_limit", cfg.detector.livelock_hop_limit);
  json.field("full_rebuild", cfg.detector.full_rebuild);
  json.end_object();

  json.key("run").begin_object();
  json.field("warmup", cfg.run.warmup);
  json.field("measure", cfg.run.measure);
  json.field("sample_every", cfg.run.sample_every);
  json.end_object();

  json.key("telemetry").begin_object();
  json.field("interval", cfg.telemetry.interval);
  json.field("ring_capacity",
             static_cast<std::uint64_t>(cfg.telemetry.ring_capacity));
  json.end_object();

  json.end_object();
}

void write_window(JsonWriter& json, const WindowMetrics& w) {
  json.key("window").begin_object();
  json.field("cycles", w.window_cycles);
  json.field("generated", w.generated);
  json.field("injected", w.injected);
  json.field("delivered", w.delivered);
  json.field("recovered", w.recovered);
  json.field("flits_delivered", w.flits_delivered);
  json.field("throughput_flits_per_node", w.throughput_flits_per_node);
  json.field("avg_latency", w.avg_latency);
  json.field("avg_hops", w.avg_hops);
  write_stat(json, "blocked_messages", w.blocked_messages);
  write_stat(json, "blocked_fraction", w.blocked_fraction);
  write_stat(json, "in_network_messages", w.in_network_messages);
  write_stat(json, "queued_messages", w.queued_messages);
  json.field("deadlocks", w.deadlocks);
  json.field("normalized_deadlocks", w.normalized_deadlocks);
  write_stat(json, "deadlock_set_size", w.deadlock_set_size);
  write_stat(json, "resource_set_size", w.resource_set_size);
  write_stat(json, "knot_cycle_density", w.knot_cycle_density);
  write_stat(json, "dependent_messages", w.dependent_messages);
  json.field("single_cycle_deadlocks", w.single_cycle_deadlocks);
  json.field("multi_cycle_deadlocks", w.multi_cycle_deadlocks);
  write_stat(json, "cwg_cycles", w.cwg_cycles);
  json.field("cycle_count_capped", w.cycle_count_capped);
  json.key("classes").begin_object();
  for (const MessageClass cls : all_message_classes()) {
    const WindowMetrics::ClassMetrics& cm = w.classes[class_index(cls)];
    json.key(to_string(cls)).begin_object();
    json.field("generated", cm.generated);
    json.field("delivered", cm.delivered);
    json.field("recovered", cm.recovered);
    json.field("avg_latency", cm.avg_latency);
    json.field("deadlock_participants", cm.deadlock_participants);
    json.end_object();
  }
  json.end_object();
  json.end_object();
}

void write_series(JsonWriter& json, const IntervalRecorder& series) {
  json.key("series").begin_object();
  json.field("interval", series.interval());
  json.field("capacity", static_cast<std::uint64_t>(series.capacity()));
  json.field("total_samples", series.total_samples());
  json.field("dropped", series.dropped());
  json.key("samples").begin_array();
  for (std::size_t i = 0; i < series.size(); ++i) {
    const IntervalSample& s = series.at(i);
    json.begin_object();
    json.field("cycle", s.cycle);
    json.field("generated", s.generated);
    json.field("injected", s.injected);
    json.field("delivered", s.delivered);
    json.field("recovered", s.recovered);
    json.field("flits_delivered", s.flits_delivered);
    json.field("throughput_flits_per_node", s.throughput_flits_per_node);
    json.field("avg_latency", s.avg_latency);
    json.field("blocked", s.blocked);
    json.field("blocked_fraction", s.blocked_fraction);
    json.field("in_network", s.in_network);
    json.field("queued", s.queued);
    json.field("cwg_ownership_arcs", s.cwg_ownership_arcs);
    json.field("cwg_request_arcs", s.cwg_request_arcs);
    json.field("detector_invocations", s.detector_invocations);
    json.field("detector_skipped", s.detector_skipped);
    json.field("deadlocks", s.deadlocks);
    json.field("transient_knots", s.transient_knots);
    json.field("livelocks", s.livelocks);
    json.key("class_delivered").begin_array();
    for (const std::int64_t n : s.class_delivered) json.value(n);
    json.end_array();
    json.end_object();
  }
  json.end_array();
  json.end_object();
}

void write_heatmap_summary(JsonWriter& json, const SpatialHeatmap& heatmap,
                           const Network& net) {
  json.key("heatmap").begin_object();
  json.field("total_traversals", heatmap.total_traversals());
  json.field("total_blocked_cycles", heatmap.total_blocked_cycles());
  json.field("total_injection_stall_cycles",
             heatmap.total_injection_stalls(net));
  json.key("hot_channels").begin_array();
  for (const ChannelId id :
       heatmap.hottest_channels(8, net.num_network_channels())) {
    const PhysChannel& pc = net.phys(id);
    const SpatialHeatmap::ChannelCounters& c = heatmap.channel(id);
    json.begin_object();
    json.field("channel", id);
    json.field("src", pc.src);
    json.field("dst", pc.dst);
    json.field("dim", pc.dim);
    json.field("dir", pc.dir);
    json.field("traversals", c.traversals);
    json.field("busy_cycles", c.busy_cycles);
    json.field("blocked_cycles", c.blocked_cycles);
    json.end_object();
  }
  json.end_array();
  json.end_object();
}

void write_profile(JsonWriter& json, const PhaseProfiler& profiler) {
  json.key("profile").begin_object();
  json.field("total_ns", profiler.total_ns());
  json.key("phases").begin_array();
  for (std::size_t i = 0; i < kNumSimPhases; ++i) {
    const auto phase = static_cast<SimPhase>(i);
    const PhaseProfiler::PhaseStats& s = profiler.stats(phase);
    json.begin_object();
    json.field("name", to_string(phase));
    json.field("calls", s.calls);
    json.field("total_ns", s.total_ns);
    json.field("mean_ns", s.mean_ns());
    json.field("max_ns", s.max_ns);
    json.end_object();
  }
  json.end_array();
  json.end_object();
}

}  // namespace

void write_manifest_json(std::ostream& out, const ExperimentConfig& config,
                         const ExperimentResult& result,
                         const Telemetry& telemetry, const Network& net,
                         const ObsCollector* obs) {
  JsonWriter json(out);
  json.begin_object();
  json.field("schema", kManifestSchema);

  json.key("build").begin_object();
  json.field("git_sha", build_git_sha());
  json.end_object();

  write_config(json, config);

  // The realized topology (vs the requested config): identity, size, and the
  // content hash that snapshot restore and route-table load validate against.
  json.key("topology").begin_object();
  json.field("kind", to_string(net.topology().kind()));
  json.field("name", net.topology().name());
  json.field("nodes", net.topology().num_nodes());
  json.field("channels",
             static_cast<std::uint64_t>(net.topology().channels().size()));
  json.field("avg_distance", net.topology().average_distance());
  json.field("content_hash", net.topology().content_hash());
  json.end_object();

  json.key("result").begin_object();
  json.field("load", result.load);
  json.field("capacity_flits_per_node", result.capacity_flits_per_node);
  json.field("offered_flit_rate", result.offered_flit_rate);
  json.field("avg_distance", result.avg_distance);
  json.field("normalized_throughput", result.normalized_throughput);
  json.field("accepted_ratio", result.accepted_ratio);
  json.field("saturated", result.saturated);
  write_window(json, result.window);
  // Effective detection cost: how many scheduled passes the incremental
  // pipeline answered without rebuilding the wait-for graph.
  json.key("detector").begin_object();
  json.field("invocations", result.detector_invocations);
  json.field("skipped_passes", result.detector_skipped_passes);
  json.end_object();
  json.end_object();

  // Resume lineage + corpus capture summary, so a manifest always records
  // whether its window was produced by an uninterrupted run.
  json.key("snapshot").begin_object();
  json.field("resumed_from", result.resumed_from);
  json.field("checkpoint_cycle", result.resumed_at_cycle);
  json.field("deadlocks_captured", result.deadlocks_captured);
  json.field("capture_duplicates", result.capture_duplicates);
  json.field("capture_dropped", result.capture_dropped);
  json.end_object();

  write_series(json, telemetry.interval_series());
  write_heatmap_summary(json, telemetry.heatmap(), net);
  write_profile(json, telemetry.profiler());

  // Observability summary: the NDJSON stream's final record, folded into the
  // manifest so one artifact answers "did this run warn, and how early?".
  if (obs != nullptr) {
    json.key("metrics").begin_object();
    if (!obs->config().metrics_path.empty()) {
      json.field("path", obs->config().metrics_path);
    }
    json.field("interval", obs->config().interval);
    json.field("warn_threshold", obs->config().warn_threshold);
    json.field("stall_ref", obs->config().stall_ref);
    obs->write_summary_fields(json, net);
    json.end_object();
  }

  json.end_object();
  out << '\n';
}

}  // namespace flexnet
