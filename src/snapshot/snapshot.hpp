// Deterministic full-state snapshots: the flexnet-snap container.
//
// A snapshot file is
//
//   magic "flexnet-snap" (12 bytes) | u32 version (=4) | sections...
//
// where each section is framed as `u32 id | u64 length | payload`, so readers
// can skip sections they do not understand and inspectors can decode the meta
// and config sections without reconstructing a network. Sections:
//
//   1 meta       — SnapshotMeta (kind, cycle, run schedule, knot metadata)
//   2 sim        — SimConfig codec
//   3 traffic    — TrafficConfig codec
//   4 detector   — DetectorConfig codec
//   5 network    — Network::save_state payload
//   6 injection  — InjectionProcess::save_state payload
//   7 det-state  — DeadlockDetector::save_state payload
//   8 metrics    — MetricsCollector::save_state payload
//   9 topology   — topology identity + link list (v2; restores file-defined
//                  and generated topologies without touching the filesystem)
//  10 obs        — ObsCollector::save_state payload (optional; present only
//                  when the captured run had observability attached)
//  11 workload   — WorkloadConfig codec (v3; trace path + cursor validation
//                  hash live in the injection payload, pace phases here)
//
// Version history: v1 had no topology section and a shorter sim-config
// record (torus only); v2 files append the topo_* fields to the sim codec
// and embed the topology; v3 adds the workload section, a per-message class
// byte and per-class counters to the network payload, per-class deadlock
// participation to the detector payload, and per-class latency histograms
// to the obs payload; v4 drops the network payload's three generator words
// (adaptive selection draws from a per-(message, cycle) stream). Readers
// accept all four; older files decode with Bernoulli/Bulk defaults and skip
// the generator words, so every pre-existing capture keeps restoring.
//
// The round-trip guarantee: restore_snapshot() on a capture of a live
// simulation produces components whose subsequent evolution is flit-for-flit
// identical to the original — every RNG position, buffer occupancy,
// arbitration cursor and accumulated statistic is part of the image.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/detector.hpp"
#include "metrics/metrics.hpp"
#include "sim/config.hpp"
#include "traffic/traffic.hpp"
#include "workload/workload.hpp"

namespace flexnet {

class InjectionProcess;
class Network;

inline constexpr char kSnapshotMagic[] = "flexnet-snap";  // 12 chars + NUL
inline constexpr std::uint32_t kSnapshotVersion = 4;
static_assert(kSnapshotVersion == kStateFormatVersion,
              "container and component codecs version together");
/// Oldest version decode_snapshot still reads.
inline constexpr std::uint32_t kMinSnapshotVersion = 1;

enum class SnapshotKind : std::uint8_t {
  Checkpoint = 1,       ///< Periodic mid-run checkpoint (resumable).
  DeadlockCapture = 2,  ///< Dumped at knot confirmation, pre-recovery.
};

/// Self-describing header record stored in every snapshot.
struct SnapshotMeta {
  SnapshotKind kind = SnapshotKind::Checkpoint;
  Cycle cycle = 0;       ///< Network::now() at capture.
  bool measuring = false;  ///< Inside the measurement window?
  // Run schedule (mirrors exp::RunConfig) so a resume completes the original
  // warmup/measure plan without re-specifying it on the command line.
  Cycle warmup = 0;
  Cycle measure = 0;
  std::int32_t sample_every = 1;
  // Deadlock-capture metadata (meaningful when kind == DeadlockCapture):
  // the recorded verdict a corpus replay must reproduce.
  std::int32_t deadlock_set_size = 0;
  std::int32_t resource_set_size = 0;
  std::int32_t knot_size = 0;
  std::int64_t knot_cycle_density = -1;
  std::uint64_t cwg_hash = 0;  ///< canonical_knot_hash of the captured knot.
};

/// The embedded topology record (section 9). For non-torus topologies the
/// link list makes the snapshot self-contained: restore rebuilds the graph
/// from these links instead of re-reading topo_file or re-running a
/// generator. Tori rebuild from SimConfig::topology and store no links.
struct TopoImage {
  bool present = false;  ///< False for v1 snapshots.
  TopoKind kind = TopoKind::Torus;
  std::string name;
  NodeId nodes = 0;
  std::uint64_t content_hash = 0;
  std::vector<TopoLink> links;  ///< Empty when kind == Torus.
};

/// A decoded snapshot: meta + configs, plus the opaque component-state
/// sections kept as raw bytes until restore_snapshot() replays them.
struct Snapshot {
  /// Container version the bytes were decoded from (kSnapshotVersion when
  /// built by capture_snapshot); component restores gate on it.
  std::uint32_t version = kSnapshotVersion;
  SnapshotMeta meta;
  SimConfig sim;
  TrafficConfig traffic;
  DetectorConfig detector;
  /// Section 11: arrival process selection (v3; Bernoulli for older files).
  /// The capture path is a run-local attachment and is not serialized.
  WorkloadConfig workload;
  TopoImage topo;
  std::vector<std::uint8_t> network_state;
  std::vector<std::uint8_t> injection_state;
  std::vector<std::uint8_t> detector_state;
  std::vector<std::uint8_t> metrics_state;
  /// Section 10: ObsCollector::save_state payload. Optional — empty when the
  /// captured run had no observability attached; old readers skip it.
  std::vector<std::uint8_t> obs_state;
};

/// Live components rebuilt from a snapshot, ready to keep stepping.
struct RestoredSim {
  SnapshotMeta meta;
  SimConfig sim;
  TrafficConfig traffic;
  DetectorConfig detector_config;
  WorkloadConfig workload;
  std::unique_ptr<Network> net;
  std::unique_ptr<InjectionProcess> injection;
  std::unique_ptr<DeadlockDetector> detector;
  MetricsCollector metrics;
};

/// Captures the full dynamic state of a live simulation. `workload`
/// identifies the arrival process so restore rebuilds the same subclass.
[[nodiscard]] Snapshot capture_snapshot(const SnapshotMeta& meta,
                                        const SimConfig& sim,
                                        const TrafficConfig& traffic,
                                        const DetectorConfig& detector,
                                        const WorkloadConfig& workload,
                                        const Network& net,
                                        const InjectionProcess& injection,
                                        const DeadlockDetector& det,
                                        const MetricsCollector& metrics);

/// Serializes to the flexnet-snap-v1 byte layout.
[[nodiscard]] std::vector<std::uint8_t> encode_snapshot(const Snapshot& snap);

/// Parses the byte layout; throws std::runtime_error on bad magic, version,
/// truncation, or a missing required section.
[[nodiscard]] Snapshot decode_snapshot(const std::uint8_t* data,
                                       std::size_t size);

/// Rebuilds live components (network, injection, detector, metrics) from the
/// stored configs and replays each state section into them. Throws
/// std::runtime_error when the stored state does not fit the stored config.
[[nodiscard]] RestoredSim restore_snapshot(const Snapshot& snap);

/// File I/O helpers (binary, whole-file). Both throw std::runtime_error on
/// I/O failure; the writer creates missing parent directories.
void write_snapshot_file(const std::string& path, const Snapshot& snap);
[[nodiscard]] Snapshot read_snapshot_file(const std::string& path);

// Config codecs, exposed for tests and the dump tool.
class BinReader;
class BinWriter;
void save_sim_config(BinWriter& out, const SimConfig& c);
/// `version` selects the field layout: v1 records stop after `seed` and
/// decode with torus defaults for the topo_* fields.
[[nodiscard]] SimConfig load_sim_config(BinReader& in,
                                        std::uint32_t version = kSnapshotVersion);
void save_traffic_config(BinWriter& out, const TrafficConfig& c);
[[nodiscard]] TrafficConfig load_traffic_config(BinReader& in);
void save_detector_config(BinWriter& out, const DetectorConfig& c);
[[nodiscard]] DetectorConfig load_detector_config(BinReader& in);
void save_workload_config(BinWriter& out, const WorkloadConfig& c);
[[nodiscard]] WorkloadConfig load_workload_config(BinReader& in);
void save_meta(BinWriter& out, const SnapshotMeta& m);
[[nodiscard]] SnapshotMeta load_meta(BinReader& in);

}  // namespace flexnet
