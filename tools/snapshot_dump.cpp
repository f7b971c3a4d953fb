// Inspector + replay driver for flexnet-snap-v1 snapshot files.
//
//   snapshot_dump FILE...            print each snapshot's header + configs
//   snapshot_dump --replay FILE...   additionally restore each DeadlockCapture
//                                    and re-run knot detection and density,
//                                    checking the fresh verdict against the
//                                    recorded one
//
// Exit status: 0 when every file decodes (and, with --replay, every capture
// reproduces its recorded verdict), 1 otherwise — so the corpus doubles as a
// scriptable regression gate in CI.
#include <cstdio>
#include <exception>
#include <string>
#include <vector>

#include "flexnet.hpp"

namespace {

using namespace flexnet;

const char* kind_name(SnapshotKind kind) {
  switch (kind) {
    case SnapshotKind::Checkpoint: return "checkpoint";
    case SnapshotKind::DeadlockCapture: return "deadlock-capture";
  }
  return "?";
}

void print_snapshot(const std::string& path, const Snapshot& snap) {
  const SnapshotMeta& m = snap.meta;
  std::printf("%s\n", path.c_str());
  std::printf("  kind        %s\n", kind_name(m.kind));
  std::printf("  cycle       %lld (%s; warmup %lld, measure %lld)\n",
              static_cast<long long>(m.cycle),
              m.measuring ? "measuring" : "warmup",
              static_cast<long long>(m.warmup),
              static_cast<long long>(m.measure));
  if (snap.sim.topo_kind == TopoKind::Torus) {
    std::printf(
        "  topology    %d-ary %d-cube %s %s, %d VC(s), depth %d\n",
        snap.sim.topology.k, snap.sim.topology.n,
        snap.sim.topology.bidirectional ? "bidirectional" : "unidirectional",
        snap.sim.topology.wrap ? "torus" : "mesh", snap.sim.vcs,
        snap.sim.buffer_depth);
  } else {
    std::printf("  topology    %s", snap.topo.name.c_str());
    if (snap.topo.present) {
      std::printf(" (%d nodes, %zu links embedded, hash %016llx)",
                  snap.topo.nodes, snap.topo.links.size(),
                  static_cast<unsigned long long>(snap.topo.content_hash));
    }
    std::printf(", %d VC(s), depth %d\n", snap.sim.vcs, snap.sim.buffer_depth);
  }
  std::printf("  routing     %s / %s, recovery %s\n",
              std::string(to_string(snap.sim.routing)).c_str(),
              std::string(to_string(snap.sim.selection)).c_str(),
              std::string(to_string(snap.detector.recovery)).c_str());
  std::printf("  traffic     %s load %.3f seed %llu\n",
              std::string(to_string(snap.traffic.pattern)).c_str(),
              snap.traffic.load,
              static_cast<unsigned long long>(snap.sim.seed));
  if (snap.workload.kind == WorkloadKind::Trace) {
    std::printf("  workload    trace:%s\n", snap.workload.trace_path.c_str());
  } else if (snap.workload.kind == WorkloadKind::Paced) {
    std::printf("  workload    pace:%s\n", snap.workload.pace_spec.c_str());
  }
  std::printf("  state bytes net %zu / inj %zu / det %zu / metrics %zu\n",
              snap.network_state.size(), snap.injection_state.size(),
              snap.detector_state.size(), snap.metrics_state.size());
  if (m.kind == SnapshotKind::DeadlockCapture) {
    std::printf(
        "  knot        set %d, resources %d, VCs %d, density %lld, "
        "hash %016llx\n",
        m.deadlock_set_size, m.resource_set_size, m.knot_size,
        static_cast<long long>(m.knot_cycle_density),
        static_cast<unsigned long long>(m.cwg_hash));
  }
}

bool replay_one(const std::string& path, const Snapshot& snap) {
  if (snap.meta.kind != SnapshotKind::DeadlockCapture) {
    std::printf("  replay      skipped (not a deadlock capture)\n");
    return true;
  }
  const ReplayResult r = replay_capture(snap);
  if (r.matches) {
    std::printf(
        "  replay      OK: set %d, resources %d, VCs %d, density %lld, "
        "hash %016llx\n",
        r.deadlock_set_size, r.resource_set_size, r.knot_size,
        static_cast<long long>(r.knot_cycle_density),
        static_cast<unsigned long long>(r.cwg_hash));
    return true;
  }
  std::fprintf(stderr, "%s: replay MISMATCH: %s\n", path.c_str(),
               r.detail.c_str());
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  bool replay = false;
  std::vector<std::string> files;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--replay") {
      replay = true;
    } else if (arg == "--help" || arg == "-h") {
      std::printf("usage: snapshot_dump [--replay] FILE...\n");
      return 0;
    } else {
      files.push_back(arg);
    }
  }
  if (files.empty()) {
    std::fprintf(stderr, "usage: snapshot_dump [--replay] FILE...\n");
    return 1;
  }

  bool ok = true;
  for (const std::string& path : files) {
    try {
      const Snapshot snap = read_snapshot_file(path);
      print_snapshot(path, snap);
      if (replay && !replay_one(path, snap)) ok = false;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s: %s\n", path.c_str(), e.what());
      ok = false;
    }
  }
  return ok ? 0 : 1;
}
