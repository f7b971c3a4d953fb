// Snapshot subsystem: binary codec round trips, the byte-identical
// save → load → step N determinism guarantee (DOR and TFAR at saturation),
// checkpoint/resume equivalence including bit-exact WindowMetrics, deadlock
// corpus capture + replay, and corrupt-input rejection.
#include "snapshot/snapshot.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/detector.hpp"
#include "exp/experiment.hpp"
#include "routing/routing.hpp"
#include "routing/selection.hpp"
#include "sim/message_class.hpp"
#include "sim/network.hpp"
#include "snapshot/corpus.hpp"
#include "util/binio.hpp"

namespace flexnet {
namespace {

// ---------------------------------------------------------------- binio

TEST(BinIo, ScalarRoundTrip) {
  BinWriter w;
  w.u8(0xab);
  w.u32(0xdeadbeefu);
  w.u64(0x0123456789abcdefULL);
  w.i32(-12345);
  w.i64(-9876543210LL);
  w.f64(3.141592653589793);
  w.f64(-0.0);
  w.str("hello");

  BinReader r(w.bytes().data(), w.size());
  EXPECT_EQ(r.u8(), 0xab);
  EXPECT_EQ(r.u32(), 0xdeadbeefu);
  EXPECT_EQ(r.u64(), 0x0123456789abcdefULL);
  EXPECT_EQ(r.i32(), -12345);
  EXPECT_EQ(r.i64(), -9876543210LL);
  EXPECT_DOUBLE_EQ(r.f64(), 3.141592653589793);
  EXPECT_TRUE(std::signbit(r.f64()));  // -0.0 survives bit-exactly
  EXPECT_EQ(r.str(), "hello");
  EXPECT_TRUE(r.done());
}

TEST(BinIo, LittleEndianLayoutIsFixed) {
  BinWriter w;
  w.u32(0x01020304u);
  ASSERT_EQ(w.size(), 4u);
  EXPECT_EQ(w.bytes()[0], 0x04);
  EXPECT_EQ(w.bytes()[3], 0x01);
}

TEST(BinIo, ReaderThrowsOnOverrun) {
  BinWriter w;
  w.u32(7);
  BinReader r(w.bytes().data(), w.size());
  (void)r.u32();
  EXPECT_THROW((void)r.u8(), std::runtime_error);
  BinReader r2(w.bytes().data(), w.size());
  EXPECT_THROW((void)r2.u64(), std::runtime_error);  // 8 > 4 available
}

TEST(BinIo, PatchU64BackfillsSectionLengths) {
  BinWriter w;
  const std::size_t at = w.size();
  w.u64(0);
  w.str("payload");
  w.patch_u64(at, 123);
  BinReader r(w.bytes().data(), w.size());
  EXPECT_EQ(r.u64(), 123u);
}

// ---------------------------------------------------------------- codecs

TEST(SnapshotCodec, ConfigRoundTrip) {
  SimConfig sim;
  sim.topology = {4, 3, false, false};
  sim.vcs = 3;
  sim.buffer_depth = 7;
  sim.message_length = 12;
  sim.short_message_fraction = 0.25;
  sim.routing = RoutingKind::DuatoTFAR;
  sim.selection = SelectionKind::Random;
  sim.max_misroutes = 2;
  sim.link_fault_fraction = 0.125;
  sim.source_queue_limit = 9;
  sim.seed = 0xfeedfaceULL;

  TrafficConfig traffic;
  traffic.pattern = TrafficKind::HotSpot;
  traffic.load = 0.65;
  traffic.hotspot_nodes = 2;
  traffic.hybrid_fraction = 0.1;
  traffic.hybrid_with = TrafficKind::Tornado;

  DetectorConfig det;
  det.interval = 25;
  det.recovery = RecoveryKind::RemoveRandom;
  det.require_quiescence = false;
  det.count_total_cycles = true;
  det.livelock_hop_limit = 99;

  BinWriter w;
  save_sim_config(w, sim);
  save_traffic_config(w, traffic);
  save_detector_config(w, det);
  BinReader r(w.bytes().data(), w.size());
  const SimConfig sim2 = load_sim_config(r);
  const TrafficConfig traffic2 = load_traffic_config(r);
  const DetectorConfig det2 = load_detector_config(r);
  EXPECT_TRUE(r.done());

  EXPECT_EQ(sim2.topology.k, 4);
  EXPECT_EQ(sim2.topology.n, 3);
  EXPECT_FALSE(sim2.topology.bidirectional);
  EXPECT_FALSE(sim2.topology.wrap);
  EXPECT_EQ(sim2.vcs, 3);
  EXPECT_EQ(sim2.buffer_depth, 7);
  EXPECT_EQ(sim2.message_length, 12);
  EXPECT_DOUBLE_EQ(sim2.short_message_fraction, 0.25);
  EXPECT_EQ(sim2.routing, RoutingKind::DuatoTFAR);
  EXPECT_EQ(sim2.selection, SelectionKind::Random);
  EXPECT_EQ(sim2.max_misroutes, 2);
  EXPECT_DOUBLE_EQ(sim2.link_fault_fraction, 0.125);
  EXPECT_EQ(sim2.source_queue_limit, 9);
  EXPECT_EQ(sim2.seed, 0xfeedfaceULL);
  EXPECT_EQ(traffic2.pattern, TrafficKind::HotSpot);
  EXPECT_DOUBLE_EQ(traffic2.load, 0.65);
  EXPECT_EQ(traffic2.hotspot_nodes, 2);
  EXPECT_EQ(traffic2.hybrid_with, TrafficKind::Tornado);
  EXPECT_EQ(det2.interval, 25);
  EXPECT_EQ(det2.recovery, RecoveryKind::RemoveRandom);
  EXPECT_FALSE(det2.require_quiescence);
  EXPECT_TRUE(det2.count_total_cycles);
  EXPECT_EQ(det2.livelock_hop_limit, 99);
}

TEST(SnapshotCodec, RejectsBadMagicVersionAndTruncation) {
  ExperimentConfig cfg;
  cfg.sim.topology = {4, 1, false, true};
  cfg.sim.routing = RoutingKind::DOR;
  Simulation sim(cfg);
  const std::vector<std::uint8_t> bytes = encode_snapshot(sim.make_checkpoint());

  std::vector<std::uint8_t> bad = bytes;
  bad[0] ^= 0xff;
  EXPECT_THROW((void)decode_snapshot(bad.data(), bad.size()),
               std::runtime_error);

  std::vector<std::uint8_t> wrong_version = bytes;
  wrong_version[12] = 99;  // version word follows the 12-byte magic
  EXPECT_THROW((void)decode_snapshot(wrong_version.data(), wrong_version.size()),
               std::runtime_error);

  for (const std::size_t cut : {bytes.size() / 2, bytes.size() - 3}) {
    EXPECT_THROW((void)decode_snapshot(bytes.data(), cut), std::runtime_error);
  }
}

TEST(SnapshotCodec, RestoreIntoMismatchedTopologyThrows) {
  ExperimentConfig cfg;
  cfg.sim.topology = {4, 2, false, true};
  cfg.sim.routing = RoutingKind::DOR;
  Simulation sim(cfg);
  sim.run_cycles(50);
  Snapshot snap = sim.make_checkpoint();
  snap.sim.topology.k = 8;  // state no longer fits the claimed shape
  EXPECT_THROW((void)restore_snapshot(snap), std::runtime_error);
}

/// Offset of the first instance of each id field, and of the message count,
/// in a Network::save_state payload (format v3), found by walking the layout
/// save_state writes. 0 marks a field the payload does not contain (offset 0
/// is the cycle).
struct IdOffsets {
  std::size_t rr_cursor = 0;  // i32
  std::size_t owner = 0;      // i64
  std::size_t route_out = 0;  // i32
  std::size_t route_in = 0;   // i32
  std::size_t messages = 0;   // u64
  std::size_t src = 0;        // i32
  std::size_t dst = 0;        // i32
  std::size_t held = 0;       // i32
  std::size_t request = 0;    // i32
  std::size_t queued = 0;     // i64
  std::size_t pending = 0;    // i32
};

IdOffsets find_id_offsets(const std::vector<std::uint8_t>& bytes) {
  BinReader in(bytes.data(), bytes.size());
  const auto at = [&] { return bytes.size() - in.remaining(); };
  const auto note = [&](std::size_t& slot) {
    if (slot == 0) slot = at();
  };
  IdOffsets o;
  in.skip(8 + 4 + 4);                           // cycle, blocked, faulted
  in.skip(8 * (7 + 4 * kNumMessageClasses));    // counters
  const std::uint64_t channels = in.u64();
  note(o.rr_cursor);
  in.skip(5 * channels);                        // cursor, fault flag
  const std::uint64_t vcs = in.u64();
  for (std::uint64_t i = 0; i < vcs; ++i) {
    const std::size_t owner_at = at();
    if (in.i64() != kInvalidMessage && o.owner == 0) o.owner = owner_at;
    const std::size_t out_at = at();
    if (in.i32() != kInvalidVc && o.route_out == 0) o.route_out = out_at;
    const std::size_t in_at = at();
    if (in.i32() != kInvalidVc && o.route_in == 0) o.route_in = in_at;
    in.skip(20 * static_cast<std::size_t>(in.i32()));  // flits
  }
  note(o.messages);
  const std::uint64_t messages = in.u64();
  for (std::uint64_t i = 0; i < messages; ++i) {
    note(o.src);
    in.skip(4);
    note(o.dst);
    in.skip(4);
    in.skip(55);  // length through class
    for (std::size_t* list : {&o.held, &o.request}) {
      const std::uint64_t count = in.u64();
      if (count > 0) note(*list);
      in.skip(4 * count);
    }
  }
  const std::uint64_t nodes = in.u64();
  for (std::uint64_t i = 0; i < nodes; ++i) {
    const std::uint64_t queued = in.u64();
    if (queued > 0) note(o.queued);
    in.skip(8 * queued);
  }
  in.skip(8 * in.u64());  // active list
  if (in.u64() > 0) note(o.pending);
  return o;
}

TEST(NetworkRestore, RejectsOutOfRangeIds) {
  // snapshot_dump --replay and checkpoint resume restore untrusted payloads:
  // an id that indexes past its table must fail with an error, not read out
  // of bounds, and a message count must not reserve past the payload. A
  // 4-node unidirectional ring where every node sends three messages two
  // hops ahead deadlocks, so its payload holds owned VCs, linked chains,
  // request sets, pending headers and queued messages.
  SimConfig cfg;
  cfg.topology.k = 4;
  cfg.topology.n = 1;
  cfg.topology.bidirectional = false;
  cfg.routing = RoutingKind::DOR;
  const auto make = [&cfg] {
    return std::make_unique<Network>(
        cfg, NetworkDeps{nullptr, make_routing(cfg),
                         make_selection(cfg.selection)});
  };
  const auto net = make();
  for (NodeId node = 0; node < 4; ++node) {
    for (int i = 0; i < 3; ++i) net->enqueue_message(node, (node + 2) % 4, 8);
  }
  for (int i = 0; i < 50; ++i) net->step();
  BinWriter out;
  net->save_state(out);
  const std::vector<std::uint8_t> good = out.bytes();
  {
    BinReader in(good.data(), good.size());
    EXPECT_NO_THROW(make()->restore_state(in));
  }

  const IdOffsets o = find_id_offsets(good);
  const struct {
    const char* field;
    std::size_t offset;
    bool wide;  // i64 rather than i32
    std::int64_t value;
  } cases[] = {
      {"arbitration cursor", o.rr_cursor, false, 7},
      {"VC owner", o.owner, true, std::int64_t{1} << 40},
      {"negative VC owner", o.owner, true, -2},
      {"route_out", o.route_out, false, 1 << 30},
      {"route_in", o.route_in, false, 1 << 30},
      {"message count", o.messages, true, std::int64_t{1} << 40},
      {"message source", o.src, false, 4},
      {"message destination", o.dst, false, -3},
      {"held VC", o.held, false, 1 << 30},
      {"requested VC", o.request, false, -2},
      {"queued message", o.queued, true, std::int64_t{1} << 40},
      {"pending VC", o.pending, false, 1 << 30},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.field);
    ASSERT_NE(c.offset, 0u) << "field absent from the payload";
    std::vector<std::uint8_t> bad = good;
    const auto bits = static_cast<std::uint64_t>(c.value);
    for (std::size_t b = 0; b < (c.wide ? 8u : 4u); ++b) {
      bad[c.offset + b] = static_cast<std::uint8_t>(bits >> (8 * b));
    }
    BinReader in(bad.data(), bad.size());
    EXPECT_THROW(make()->restore_state(in), std::runtime_error);
  }
}

TEST(NetworkRestore, PreV4PayloadsSkipGeneratorWords) {
  // v1-v3 network payloads carry three words of a network generator after
  // the counters; v4 dropped it. An older payload restores to the same state.
  SimConfig cfg;
  cfg.topology.k = 4;
  cfg.topology.n = 1;
  const auto make = [&cfg] {
    return std::make_unique<Network>(
        cfg, NetworkDeps{nullptr, make_routing(cfg),
                         make_selection(cfg.selection)});
  };
  const auto net = make();
  for (NodeId node = 0; node < 4; ++node) {
    net->enqueue_message(node, (node + 1) % 4, 8);
  }
  for (int i = 0; i < 5; ++i) net->step();
  BinWriter out;
  net->save_state(out);
  const std::vector<std::uint8_t> v4 = out.bytes();

  std::vector<std::uint8_t> v3 = v4;
  const std::size_t counters_end = 8 + 4 + 4 + 8 * (7 + 4 * kNumMessageClasses);
  v3.insert(v3.begin() + static_cast<std::ptrdiff_t>(counters_end), 24, 0xab);
  const auto restored = make();
  BinReader in(v3.data(), v3.size());
  restored->restore_state(in, 3);
  EXPECT_EQ(in.remaining(), 0u);
  BinWriter again;
  restored->save_state(again);
  EXPECT_EQ(again.bytes(), v4);
}

TEST(DetectorRestore, RejectsOversizedCounts) {
  // The detector payload's record and cycle-sample counts come from the
  // same untrusted bytes: a count past the payload must fail with an error
  // before it reserves, not allocate it.
  const DeadlockDetector saved(DetectorConfig{}, 5);
  BinWriter out;
  saved.save_state(out);
  const std::vector<std::uint8_t> good = out.bytes();
  {
    DeadlockDetector det(DetectorConfig{}, 5);
    BinReader in(good.data(), good.size());
    EXPECT_NO_THROW(det.restore_state(in));
  }

  // Generator (3 x u64) and four i64 tallies precede the record count; with
  // no records, the sample count follows it.
  const struct {
    const char* field;
    std::size_t offset;
  } cases[] = {{"record count", 56}, {"cycle-sample count", 64}};
  for (const auto& c : cases) {
    SCOPED_TRACE(c.field);
    std::vector<std::uint8_t> bad = good;
    const std::uint64_t count = std::uint64_t{1} << 40;
    for (std::size_t b = 0; b < 8; ++b) {
      bad[c.offset + b] = static_cast<std::uint8_t>(count >> (8 * b));
    }
    DeadlockDetector det(DetectorConfig{}, 5);
    BinReader in(bad.data(), bad.size());
    EXPECT_THROW(det.restore_state(in), std::runtime_error);
  }
}

// ------------------------------------------------- round-trip determinism

// Serializes the network's full dynamic state for byte comparison: equality
// here means flit-for-flit identical evolution (buffers, message table with
// per-message delivery cycles, counters, RNG position).
std::vector<std::uint8_t> state_bytes(const Network& net) {
  BinWriter w;
  net.save_state(w);
  return w.bytes();
}

void step_restored(RestoredSim& r, Cycle cycles) {
  for (Cycle i = 0; i < cycles; ++i) {
    r.injection->tick(*r.net);
    r.net->step();
    r.detector->tick(*r.net);
  }
}

class RoundTripDeterminism : public ::testing::TestWithParam<RoutingKind> {};

TEST_P(RoundTripDeterminism, SaveLoadStepMatchesStepExactly) {
  // Saturation load on an 8-ary 2-cube, where deep congestion (and for DOR /
  // TFAR with unrestricted VCs, genuine deadlock + recovery) exercises every
  // serialized structure: VC chains, request sets, source queue backlogs,
  // detector RNG victim draws.
  ExperimentConfig cfg;
  cfg.sim.topology.k = 8;
  cfg.sim.topology.n = 2;
  cfg.sim.topology.bidirectional = GetParam() != RoutingKind::DOR;
  cfg.sim.routing = GetParam();
  cfg.sim.vcs = GetParam() == RoutingKind::DOR ? 1 : 2;
  cfg.sim.message_length = 16;
  cfg.traffic.load = 0.95;
  cfg.sim.seed = 2026;
  cfg.detector.interval = 50;

  Simulation sim(cfg);
  sim.run_cycles(1000);

  const Snapshot snap = sim.make_checkpoint();
  // Encode → decode through the file format, not just the in-memory struct.
  const std::vector<std::uint8_t> bytes = encode_snapshot(snap);
  RestoredSim restored = restore_snapshot(decode_snapshot(bytes.data(), bytes.size()));

  ASSERT_EQ(restored.net->now(), sim.network().now());
  ASSERT_EQ(state_bytes(*restored.net), state_bytes(sim.network()));

  // Step both 5000 cycles and compare the complete state byte-for-byte.
  sim.run_cycles(5000);
  step_restored(restored, 5000);

  EXPECT_EQ(state_bytes(*restored.net), state_bytes(sim.network()));
  EXPECT_EQ(restored.net->counters().delivered, sim.network().counters().delivered);
  EXPECT_EQ(restored.net->counters().recovered, sim.network().counters().recovered);
  EXPECT_EQ(restored.detector->total_deadlocks(), sim.detector().total_deadlocks());
  EXPECT_EQ(restored.detector->transient_knots(), sim.detector().transient_knots());
  EXPECT_EQ(restored.detector->records().size(), sim.detector().records().size());
  // And the follow-on evolution stays locked after another save/load.
  BinWriter wa, wb;
  restored.detector->save_state(wa);
  sim.detector().save_state(wb);
  EXPECT_EQ(wa.bytes(), wb.bytes());
}

INSTANTIATE_TEST_SUITE_P(Routings, RoundTripDeterminism,
                         ::testing::Values(RoutingKind::DOR, RoutingKind::TFAR));

// ------------------------------------------------------ checkpoint/resume

ExperimentConfig resume_base_config() {
  ExperimentConfig cfg;
  cfg.sim.topology.k = 4;
  cfg.sim.topology.n = 2;
  cfg.sim.topology.bidirectional = false;
  cfg.sim.routing = RoutingKind::DOR;
  cfg.sim.message_length = 8;
  cfg.sim.seed = 7;
  cfg.traffic.load = 0.8;
  cfg.detector.interval = 50;
  cfg.run.warmup = 500;
  cfg.run.measure = 1500;
  return cfg;
}

void expect_same_window(const WindowMetrics& a, const WindowMetrics& b) {
  EXPECT_EQ(a.window_cycles, b.window_cycles);
  EXPECT_EQ(a.generated, b.generated);
  EXPECT_EQ(a.injected, b.injected);
  EXPECT_EQ(a.delivered, b.delivered);
  EXPECT_EQ(a.recovered, b.recovered);
  EXPECT_EQ(a.flits_delivered, b.flits_delivered);
  EXPECT_EQ(a.avg_latency, b.avg_latency);  // exact: same sums, same counts
  EXPECT_EQ(a.avg_hops, b.avg_hops);
  EXPECT_EQ(a.deadlocks, b.deadlocks);
  EXPECT_EQ(a.normalized_deadlocks, b.normalized_deadlocks);
  EXPECT_EQ(a.blocked_messages.count(), b.blocked_messages.count());
  EXPECT_EQ(a.blocked_messages.mean(), b.blocked_messages.mean());
  EXPECT_EQ(a.blocked_fraction.mean(), b.blocked_fraction.mean());
  EXPECT_EQ(a.in_network_messages.mean(), b.in_network_messages.mean());
  EXPECT_EQ(a.queued_messages.mean(), b.queued_messages.mean());
  EXPECT_EQ(a.deadlock_set_size.mean(), b.deadlock_set_size.mean());
  EXPECT_EQ(a.resource_set_size.mean(), b.resource_set_size.mean());
  EXPECT_EQ(a.single_cycle_deadlocks, b.single_cycle_deadlocks);
  EXPECT_EQ(a.multi_cycle_deadlocks, b.multi_cycle_deadlocks);
}

TEST(CheckpointResume, MidMeasurementResumeReproducesTheWindowBitExactly) {
  const std::string dir = ::testing::TempDir() + "flexnet_ckpt_measure";
  std::filesystem::remove_all(dir);

  ExperimentConfig with_ckpt = resume_base_config();
  with_ckpt.snapshot.checkpoint_every = 700;
  with_ckpt.snapshot.checkpoint_dir = dir;
  const ExperimentResult full = run_experiment(with_ckpt);

  // Cycle 1400 is inside the measurement window (warmup ends at 500).
  ExperimentConfig resume;
  resume.snapshot.resume_path = dir + "/ckpt-1400.snap";
  const ExperimentResult resumed = run_experiment(resume);

  expect_same_window(full.window, resumed.window);
  EXPECT_EQ(full.normalized_throughput, resumed.normalized_throughput);
  EXPECT_EQ(resumed.resumed_from, resume.snapshot.resume_path);
  EXPECT_EQ(resumed.resumed_at_cycle, 1400);
  EXPECT_TRUE(full.resumed_from.empty());
}

TEST(CheckpointResume, MidWarmupResumeReproducesTheWindowBitExactly) {
  const std::string dir = ::testing::TempDir() + "flexnet_ckpt_warmup";
  std::filesystem::remove_all(dir);

  ExperimentConfig with_ckpt = resume_base_config();
  with_ckpt.snapshot.checkpoint_every = 300;
  with_ckpt.snapshot.checkpoint_dir = dir;
  const ExperimentResult full = run_experiment(with_ckpt);

  // Cycle 300 is still warming up: the resumed run must finish warmup, open
  // its own window, and land on the identical metrics.
  ExperimentConfig resume;
  resume.snapshot.resume_path = dir + "/ckpt-300.snap";
  const ExperimentResult resumed = run_experiment(resume);

  expect_same_window(full.window, resumed.window);
  EXPECT_EQ(resumed.resumed_at_cycle, 300);
}

TEST(CheckpointResume, CheckpointsAppearOnSchedule) {
  const std::string dir = ::testing::TempDir() + "flexnet_ckpt_schedule";
  std::filesystem::remove_all(dir);
  ExperimentConfig cfg = resume_base_config();
  cfg.run.warmup = 100;
  cfg.run.measure = 200;
  cfg.snapshot.checkpoint_every = 100;
  cfg.snapshot.checkpoint_dir = dir;
  (void)run_experiment(cfg);
  for (const Cycle c : {100, 200, 300}) {
    EXPECT_TRUE(std::filesystem::exists(dir + "/ckpt-" + std::to_string(c) +
                                        ".snap"))
        << "missing checkpoint at cycle " << c;
  }
  const Snapshot snap = read_snapshot_file(dir + "/ckpt-200.snap");
  EXPECT_EQ(snap.meta.kind, SnapshotKind::Checkpoint);
  EXPECT_EQ(snap.meta.cycle, 200);
  EXPECT_TRUE(snap.meta.measuring);
  EXPECT_EQ(snap.meta.warmup, 100);
  EXPECT_EQ(snap.meta.measure, 200);
}

// ------------------------------------------------------------- corpus

TEST(DeadlockCorpusTest, CapturesDedupedSnapshotsThatReplay) {
  const std::string dir = ::testing::TempDir() + "flexnet_corpus";
  std::filesystem::remove_all(dir);

  ExperimentConfig cfg = resume_base_config();
  cfg.run.warmup = 200;
  cfg.run.measure = 800;
  cfg.snapshot.capture_dir = dir;
  cfg.snapshot.capture_limit = 6;
  const ExperimentResult result = run_experiment(cfg);

  ASSERT_GT(result.deadlocks_captured, 0);
  EXPECT_LE(result.deadlocks_captured, 6);
  // Every confirmed knot is either captured, deduped, or dropped by the cap
  // (the hook also runs during warmup, so the total can exceed the window's).
  EXPECT_GE(result.deadlocks_captured + result.capture_duplicates +
                result.capture_dropped,
            result.window.deadlocks);

  int files = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    const Snapshot snap = read_snapshot_file(entry.path().string());
    EXPECT_EQ(snap.meta.kind, SnapshotKind::DeadlockCapture);
    EXPECT_GT(snap.meta.deadlock_set_size, 0);
    const ReplayResult replay = replay_capture(snap);
    EXPECT_TRUE(replay.knot_found) << entry.path();
    EXPECT_TRUE(replay.matches) << entry.path() << ": " << replay.detail;
    ++files;
  }
  EXPECT_EQ(files, result.deadlocks_captured);
}

TEST(DeadlockCorpusTest, ReplayRejectsCheckpointSnapshots) {
  ExperimentConfig cfg;
  cfg.sim.topology = {4, 1, false, true};
  cfg.sim.routing = RoutingKind::DOR;
  Simulation sim(cfg);
  EXPECT_THROW((void)replay_capture(sim.make_checkpoint()), std::runtime_error);
}

}  // namespace
}  // namespace flexnet
