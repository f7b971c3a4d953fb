#include "snapshot/snapshot.hpp"

#include <cstring>
#include <filesystem>
#include <fstream>
#include <stdexcept>

#include "routing/routing.hpp"
#include "routing/selection.hpp"
#include "sim/network.hpp"
#include "topo/factory.hpp"
#include "topo/graph_topology.hpp"
#include "traffic/injection.hpp"
#include "util/binio.hpp"

namespace flexnet {

namespace {

// Section ids of the flexnet-snap container.
enum Section : std::uint32_t {
  kMeta = 1,
  kSim = 2,
  kTraffic = 3,
  kDetector = 4,
  kNetwork = 5,
  kInjection = 6,
  kDetectorState = 7,
  kMetrics = 8,
  kTopology = 9,  // v2
  kObs = 10,      // ObsCollector::save_state payload; optional
  kWorkload = 11,  // v3: WorkloadConfig codec
};

constexpr std::size_t kMagicLen = 12;

[[noreturn]] void bad_snapshot(const std::string& what) {
  throw std::runtime_error("snapshot: " + what);
}

void begin_section(BinWriter& out, std::uint32_t id, std::size_t& len_at) {
  out.u32(id);
  len_at = out.size();
  out.u64(0);  // back-patched once the payload is written
}

void write_section(BinWriter& out, std::uint32_t id,
                   const std::vector<std::uint8_t>& payload) {
  out.u32(id);
  out.u64(payload.size());
  out.raw(payload.data(), payload.size());
}

}  // namespace

// --- config codecs ---------------------------------------------------------
//
// Every field is written explicitly (no memcpy of structs), so the format is
// stable against compiler padding and survives field reordering in headers.

namespace {

void save_topo_image(BinWriter& out, const TopoImage& t) {
  out.u8(static_cast<std::uint8_t>(t.kind));
  out.str(t.name);
  out.i32(t.nodes);
  out.u64(t.content_hash);
  out.u64(t.links.size());
  for (const TopoLink& link : t.links) {
    out.i32(link.src);
    out.i32(link.dst);
    out.i32(link.width);
  }
}

TopoImage load_topo_image(BinReader& in) {
  TopoImage t;
  t.present = true;
  const std::uint8_t kind = in.u8();
  if (kind > static_cast<std::uint8_t>(TopoKind::File)) {
    bad_snapshot("unknown topology kind " + std::to_string(kind));
  }
  t.kind = static_cast<TopoKind>(kind);
  t.name = in.str();
  t.nodes = in.i32();
  t.content_hash = in.u64();
  const std::uint64_t count = in.u64();
  if (count > in.remaining()) bad_snapshot("topology link list truncated");
  t.links.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count; ++i) {
    TopoLink link;
    link.src = in.i32();
    link.dst = in.i32();
    link.width = in.i32();
    t.links.push_back(link);
  }
  return t;
}

}  // namespace

void save_sim_config(BinWriter& out, const SimConfig& c) {
  out.i32(c.topology.k);
  out.i32(c.topology.n);
  out.u8(c.topology.bidirectional ? 1 : 0);
  out.u8(c.topology.wrap ? 1 : 0);
  out.i32(c.vcs);
  out.i32(c.buffer_depth);
  out.i32(c.injection_vcs);
  out.i32(c.ejection_vcs);
  out.i32(c.message_length);
  out.f64(c.short_message_fraction);
  out.i32(c.short_message_length);
  out.u8(static_cast<std::uint8_t>(c.routing));
  out.u8(static_cast<std::uint8_t>(c.selection));
  out.i32(c.max_misroutes);
  out.f64(c.link_fault_fraction);
  out.i32(c.source_queue_limit);
  out.u64(c.seed);
  // v2 fields (the generalized-topology parameters).
  out.u8(static_cast<std::uint8_t>(c.topo_kind));
  out.i32(c.topo_nodes);
  out.i32(c.topo_degree);
  out.i32(c.topo_df_routers);
  out.i32(c.topo_df_globals);
  out.u64(c.topo_seed);
  out.str(c.topo_file);
  out.str(c.route_table_file);
}

SimConfig load_sim_config(BinReader& in, std::uint32_t version) {
  SimConfig c;
  c.topology.k = in.i32();
  c.topology.n = in.i32();
  c.topology.bidirectional = in.u8() != 0;
  c.topology.wrap = in.u8() != 0;
  c.vcs = in.i32();
  c.buffer_depth = in.i32();
  c.injection_vcs = in.i32();
  c.ejection_vcs = in.i32();
  c.message_length = in.i32();
  c.short_message_fraction = in.f64();
  c.short_message_length = in.i32();
  c.routing = static_cast<RoutingKind>(in.u8());
  c.selection = static_cast<SelectionKind>(in.u8());
  c.max_misroutes = in.i32();
  c.link_fault_fraction = in.f64();
  c.source_queue_limit = in.i32();
  c.seed = in.u64();
  if (version >= 2) {
    const std::uint8_t kind = in.u8();
    if (kind > static_cast<std::uint8_t>(TopoKind::File)) {
      bad_snapshot("unknown topology kind " + std::to_string(kind));
    }
    c.topo_kind = static_cast<TopoKind>(kind);
    c.topo_nodes = in.i32();
    c.topo_degree = in.i32();
    c.topo_df_routers = in.i32();
    c.topo_df_globals = in.i32();
    c.topo_seed = in.u64();
    c.topo_file = in.str();
    c.route_table_file = in.str();
  }
  // v1 records predate topo_kind: they are torus snapshots by construction
  // and keep the TopoKind::Torus defaults.
  return c;
}

void save_traffic_config(BinWriter& out, const TrafficConfig& c) {
  out.u8(static_cast<std::uint8_t>(c.pattern));
  out.f64(c.load);
  out.i32(c.hotspot_nodes);
  out.f64(c.hotspot_fraction);
  out.f64(c.hybrid_fraction);
  out.u8(static_cast<std::uint8_t>(c.hybrid_with));
}

TrafficConfig load_traffic_config(BinReader& in) {
  TrafficConfig c;
  c.pattern = static_cast<TrafficKind>(in.u8());
  c.load = in.f64();
  c.hotspot_nodes = in.i32();
  c.hotspot_fraction = in.f64();
  c.hybrid_fraction = in.f64();
  c.hybrid_with = static_cast<TrafficKind>(in.u8());
  return c;
}

void save_detector_config(BinWriter& out, const DetectorConfig& c) {
  out.i64(c.interval);
  out.u8(static_cast<std::uint8_t>(c.recovery));
  out.u8(c.require_quiescence ? 1 : 0);
  out.u8(c.measure_knot_density ? 1 : 0);
  out.i64(c.knot_density_cap);
  out.u8(c.count_total_cycles ? 1 : 0);
  out.i32(c.cycle_sample_every);
  out.i64(c.total_cycle_cap);
  out.u8(c.keep_records ? 1 : 0);
  out.i32(c.livelock_hop_limit);
}

DetectorConfig load_detector_config(BinReader& in) {
  DetectorConfig c;
  c.interval = in.i64();
  c.recovery = static_cast<RecoveryKind>(in.u8());
  c.require_quiescence = in.u8() != 0;
  c.measure_knot_density = in.u8() != 0;
  c.knot_density_cap = in.i64();
  c.count_total_cycles = in.u8() != 0;
  c.cycle_sample_every = in.i32();
  c.total_cycle_cap = in.i64();
  c.keep_records = in.u8() != 0;
  c.livelock_hop_limit = in.i32();
  return c;
}

void save_workload_config(BinWriter& out, const WorkloadConfig& c) {
  out.u8(static_cast<std::uint8_t>(c.kind));
  out.str(c.trace_path);
  out.str(c.pace_spec);
  out.u8(c.pace.repeat() ? 1 : 0);
  out.u64(c.pace.phases().size());
  for (const PacePhase& p : c.pace.phases()) {
    out.i64(p.cycles);
    out.f64(p.rate0);
    out.f64(p.rate1);
    out.u8(static_cast<std::uint8_t>(p.cls));
  }
  // capture_path is a run-local attachment, deliberately not serialized: a
  // resume decides afresh whether (and where) to record.
}

WorkloadConfig load_workload_config(BinReader& in) {
  WorkloadConfig c;
  const std::uint8_t kind = in.u8();
  if (kind > static_cast<std::uint8_t>(WorkloadKind::Paced)) {
    bad_snapshot("unknown workload kind " + std::to_string(kind));
  }
  c.kind = static_cast<WorkloadKind>(kind);
  c.trace_path = in.str();
  c.pace_spec = in.str();
  const bool repeat = in.u8() != 0;
  const std::uint64_t count = in.u64();
  if (count > in.remaining()) bad_snapshot("pace phase list truncated");
  std::vector<PacePhase> phases;
  phases.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count; ++i) {
    PacePhase p;
    p.cycles = in.i64();
    p.rate0 = in.f64();
    p.rate1 = in.f64();
    p.cls = message_class_from_index(in.u8());
    phases.push_back(p);
  }
  // The profile is rebuilt from the serialized phases (not re-parsed from
  // pace_spec): the snapshot stays self-contained even if a referenced pace
  // file changed or vanished.
  if (!phases.empty()) c.pace = PaceProfile(std::move(phases), repeat);
  if (c.kind == WorkloadKind::Paced && c.pace.empty()) {
    bad_snapshot("paced workload without phases");
  }
  return c;
}

void save_meta(BinWriter& out, const SnapshotMeta& m) {
  out.u8(static_cast<std::uint8_t>(m.kind));
  out.i64(m.cycle);
  out.u8(m.measuring ? 1 : 0);
  out.i64(m.warmup);
  out.i64(m.measure);
  out.i32(m.sample_every);
  out.i32(m.deadlock_set_size);
  out.i32(m.resource_set_size);
  out.i32(m.knot_size);
  out.i64(m.knot_cycle_density);
  out.u64(m.cwg_hash);
}

SnapshotMeta load_meta(BinReader& in) {
  SnapshotMeta m;
  m.kind = static_cast<SnapshotKind>(in.u8());
  if (m.kind != SnapshotKind::Checkpoint &&
      m.kind != SnapshotKind::DeadlockCapture) {
    bad_snapshot("unknown snapshot kind");
  }
  m.cycle = in.i64();
  m.measuring = in.u8() != 0;
  m.warmup = in.i64();
  m.measure = in.i64();
  m.sample_every = in.i32();
  m.deadlock_set_size = in.i32();
  m.resource_set_size = in.i32();
  m.knot_size = in.i32();
  m.knot_cycle_density = in.i64();
  m.cwg_hash = in.u64();
  return m;
}

// --- capture / encode / decode / restore -----------------------------------

Snapshot capture_snapshot(const SnapshotMeta& meta, const SimConfig& sim,
                          const TrafficConfig& traffic,
                          const DetectorConfig& detector,
                          const WorkloadConfig& workload, const Network& net,
                          const InjectionProcess& injection,
                          const DeadlockDetector& det,
                          const MetricsCollector& metrics) {
  Snapshot snap;
  snap.meta = meta;
  snap.meta.cycle = net.now();
  snap.sim = sim;
  snap.traffic = traffic;
  snap.detector = detector;
  snap.workload = workload;
  snap.workload.capture_path.clear();

  const Topology& topo = net.topology();
  snap.topo.present = true;
  snap.topo.kind = topo.kind();
  snap.topo.name = topo.name();
  snap.topo.nodes = topo.num_nodes();
  snap.topo.content_hash = topo.content_hash();
  if (topo.kind() != TopoKind::Torus) {
    snap.topo.links.reserve(topo.channels().size());
    for (const ChannelDesc& ch : topo.channels()) {
      snap.topo.links.push_back(TopoLink{ch.src, ch.dst, ch.width});
    }
  }

  BinWriter w;
  net.save_state(w);
  snap.network_state = std::move(w).bytes();

  BinWriter wi;
  injection.save_state(wi);
  snap.injection_state = std::move(wi).bytes();

  BinWriter wd;
  det.save_state(wd);
  snap.detector_state = std::move(wd).bytes();

  BinWriter wm;
  metrics.save_state(wm);
  snap.metrics_state = std::move(wm).bytes();
  return snap;
}

std::vector<std::uint8_t> encode_snapshot(const Snapshot& snap) {
  BinWriter out;
  // One buffer for the whole image: the state sections (megabytes on a 32k
  // network) plus room for the small config sections, so the image is not
  // copied as it grows.
  out.reserve(kMagicLen + 4 + 64 * 1024 + snap.network_state.size() +
              snap.injection_state.size() + snap.detector_state.size() +
              snap.metrics_state.size() + snap.obs_state.size());
  out.raw(kSnapshotMagic, kMagicLen);
  out.u32(kSnapshotVersion);

  std::size_t len_at = 0;
  begin_section(out, kMeta, len_at);
  const std::size_t meta_start = out.size();
  save_meta(out, snap.meta);
  out.patch_u64(len_at, out.size() - meta_start);

  begin_section(out, kSim, len_at);
  const std::size_t sim_start = out.size();
  save_sim_config(out, snap.sim);
  out.patch_u64(len_at, out.size() - sim_start);

  begin_section(out, kTraffic, len_at);
  const std::size_t traffic_start = out.size();
  save_traffic_config(out, snap.traffic);
  out.patch_u64(len_at, out.size() - traffic_start);

  begin_section(out, kDetector, len_at);
  const std::size_t det_start = out.size();
  save_detector_config(out, snap.detector);
  out.patch_u64(len_at, out.size() - det_start);

  begin_section(out, kWorkload, len_at);
  const std::size_t wl_start = out.size();
  save_workload_config(out, snap.workload);
  out.patch_u64(len_at, out.size() - wl_start);

  if (snap.topo.present) {
    begin_section(out, kTopology, len_at);
    const std::size_t topo_start = out.size();
    save_topo_image(out, snap.topo);
    out.patch_u64(len_at, out.size() - topo_start);
  }

  write_section(out, kNetwork, snap.network_state);
  write_section(out, kInjection, snap.injection_state);
  write_section(out, kDetectorState, snap.detector_state);
  write_section(out, kMetrics, snap.metrics_state);
  if (!snap.obs_state.empty()) write_section(out, kObs, snap.obs_state);
  return std::move(out).bytes();
}

Snapshot decode_snapshot(const std::uint8_t* data, std::size_t size) {
  BinReader in(data, size);
  if (in.remaining() < kMagicLen ||
      std::memcmp(data, kSnapshotMagic, kMagicLen) != 0) {
    bad_snapshot("bad magic (not a flexnet-snap file)");
  }
  in.skip(kMagicLen);
  const std::uint32_t version = in.u32();
  if (version < kMinSnapshotVersion || version > kSnapshotVersion) {
    bad_snapshot("unsupported version " + std::to_string(version));
  }

  Snapshot snap;
  snap.version = version;
  bool have_meta = false, have_sim = false, have_traffic = false,
       have_detector = false, have_network = false;
  while (!in.done()) {
    const std::uint32_t id = in.u32();
    const std::uint64_t len = in.u64();
    if (len > in.remaining()) bad_snapshot("truncated section");
    const std::uint8_t* begin = data + (size - in.remaining());
    BinReader section = in.sub(static_cast<std::size_t>(len));
    switch (id) {
      case kMeta:
        snap.meta = load_meta(section);
        have_meta = true;
        break;
      case kSim:
        snap.sim = load_sim_config(section, version);
        have_sim = true;
        break;
      case kTraffic:
        snap.traffic = load_traffic_config(section);
        have_traffic = true;
        break;
      case kDetector:
        snap.detector = load_detector_config(section);
        have_detector = true;
        break;
      case kNetwork:
        snap.network_state.assign(begin, begin + len);
        have_network = true;
        break;
      case kInjection:
        snap.injection_state.assign(begin, begin + len);
        break;
      case kDetectorState:
        snap.detector_state.assign(begin, begin + len);
        break;
      case kMetrics:
        snap.metrics_state.assign(begin, begin + len);
        break;
      case kTopology:
        snap.topo = load_topo_image(section);
        break;
      case kObs:
        snap.obs_state.assign(begin, begin + len);
        break;
      case kWorkload:
        snap.workload = load_workload_config(section);
        break;
      default:
        break;  // forward compatibility: unknown sections are skipped
    }
  }
  if (!have_meta || !have_sim || !have_traffic || !have_detector ||
      !have_network) {
    bad_snapshot("missing required section");
  }
  return snap;
}

RestoredSim restore_snapshot(const Snapshot& snap) {
  snap.sim.validate();
  RestoredSim out;
  out.meta = snap.meta;
  out.sim = snap.sim;
  out.traffic = snap.traffic;
  out.detector_config = snap.detector;
  out.metrics = MetricsCollector(snap.meta.sample_every);

  // Non-torus topologies rebuild from the embedded link list, so a capture
  // of a file-defined network restores without the original .topo file (and
  // a generator version bump cannot silently change the graph under a
  // stored state). Tori rebuild from SimConfig::topology as always.
  std::shared_ptr<const Topology> topo;
  if (snap.topo.present && snap.topo.kind != TopoKind::Torus) {
    GraphTopology::Spec spec;
    spec.kind = snap.topo.kind;
    spec.name = snap.topo.name;
    spec.nodes = snap.topo.nodes;
    spec.links = snap.topo.links;
    topo = std::make_shared<GraphTopology>(std::move(spec));
  } else {
    topo = make_topology(snap.sim);
  }
  if (snap.topo.present && topo->content_hash() != snap.topo.content_hash) {
    bad_snapshot("topology hash mismatch (stored " + snap.topo.name +
                 ", rebuilt " + topo->name() + ")");
  }

  out.net = std::make_unique<Network>(
      snap.sim, NetworkDeps{std::move(topo), make_routing(snap.sim),
                            make_selection(snap.sim.selection)});
  {
    BinReader in(snap.network_state.data(), snap.network_state.size());
    out.net->restore_state(in, snap.version);
    if (!in.done()) bad_snapshot("trailing bytes in network section");
  }

  // The injection process derives its rate constants from config + seed
  // (Monte Carlo distance sampling uses the seed directly), so constructing
  // the stored workload's subclass with the stored seed and replaying its
  // RNG position (plus trace cursor / profile hash) is exact.
  out.workload = snap.workload;
  out.injection =
      make_injection(*out.net, snap.traffic, snap.workload, snap.sim.seed);
  if (out.injection->kind() != snap.workload.kind) {
    bad_snapshot("workload kind mismatch after restore");
  }
  if (!snap.injection_state.empty()) {
    BinReader in(snap.injection_state.data(), snap.injection_state.size());
    out.injection->restore_state(in, snap.version);
    if (!in.done()) bad_snapshot("trailing bytes in injection section");
  }

  out.detector =
      std::make_unique<DeadlockDetector>(snap.detector, snap.sim.seed);
  if (!snap.detector_state.empty()) {
    BinReader in(snap.detector_state.data(), snap.detector_state.size());
    out.detector->restore_state(in, snap.version);
    if (!in.done()) bad_snapshot("trailing bytes in detector section");
  }

  if (!snap.metrics_state.empty()) {
    BinReader in(snap.metrics_state.data(), snap.metrics_state.size());
    out.metrics.restore_state(in, snap.version);
    if (!in.done()) bad_snapshot("trailing bytes in metrics section");
  }
  return out;
}

void write_snapshot_file(const std::string& path, const Snapshot& snap) {
  const std::filesystem::path p(path);
  if (p.has_parent_path()) {
    std::error_code ec;
    std::filesystem::create_directories(p.parent_path(), ec);
    if (ec) {
      bad_snapshot("cannot create directory " + p.parent_path().string() +
                   ": " + ec.message());
    }
  }
  const std::vector<std::uint8_t> bytes = encode_snapshot(snap);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) bad_snapshot("cannot open " + path + " for writing");
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  if (!out) bad_snapshot("write failed: " + path);
}

Snapshot read_snapshot_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) bad_snapshot("cannot open " + path);
  const std::streamsize size = in.tellg();
  in.seekg(0);
  std::vector<std::uint8_t> bytes(static_cast<std::size_t>(size));
  in.read(reinterpret_cast<char*>(bytes.data()), size);
  if (!in) bad_snapshot("read failed: " + path);
  return decode_snapshot(bytes.data(), bytes.size());
}

}  // namespace flexnet
