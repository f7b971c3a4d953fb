// trace_dump: inspect a binary trace written by --trace-bin (BinaryTraceSink).
//
//   ./tools/trace_dump trace.bin                 # print every event
//   ./tools/trace_dump trace.bin --stats         # per-kind counts only
//   ./tools/trace_dump trace.bin --message 42    # one message's history
//   ./tools/trace_dump trace.bin --kind DeadlockDetected
//   ./tools/trace_dump trace.bin --from 1000 --to 2000 --tail 50
#include <array>
#include <cstdio>
#include <fstream>
#include <string>
#include <string_view>
#include <vector>

#include "trace/sinks.hpp"
#include "util/options.hpp"

namespace {

using namespace flexnet;

// Every option this tool reads, and those of them that take no value.
constexpr std::string_view kOptions[] = {"stats", "message", "kind",
                                         "from",  "to",      "tail"};
constexpr std::string_view kFlags[] = {"stats"};

int dump(const Options& opts) {
  if (opts.positional().size() != 1) {
    std::fprintf(stderr,
                 "usage: trace_dump FILE [--stats] [--message M] [--kind K] "
                 "[--from C] [--to C] [--tail N]\n");
    return 1;
  }

  const std::string path = opts.positional().front();
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return 1;
  }

  std::vector<TraceEvent> events;
  try {
    events = read_binary_trace(in);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error reading %s: %s\n", path.c_str(), e.what());
    return 1;
  }

  TraceEventKind kind_filter = TraceEventKind::kCount_;
  if (opts.has("kind")) {
    kind_filter = parse_trace_event_kind(opts.get("kind"));
    if (kind_filter == TraceEventKind::kCount_) {
      std::fprintf(stderr, "unknown event kind: %s\n",
                   opts.get("kind").c_str());
      return 1;
    }
  }
  const long long message_filter = opts.get_int("message", -1);
  const long long from = opts.get_int("from", -1);
  const long long to = opts.get_int("to", -1);

  std::vector<TraceEvent> selected;
  for (const TraceEvent& e : events) {
    if (kind_filter != TraceEventKind::kCount_ && e.kind != kind_filter) continue;
    if (message_filter >= 0 && e.message != message_filter) continue;
    if (from >= 0 && e.cycle < from) continue;
    if (to >= 0 && e.cycle > to) continue;
    selected.push_back(e);
  }

  const long long tail = opts.get_int("tail", -1);
  if (tail >= 0 && selected.size() > static_cast<std::size_t>(tail)) {
    selected.erase(selected.begin(),
                   selected.end() - static_cast<std::ptrdiff_t>(tail));
  }

  std::printf("%s: %zu events total, %zu selected\n", path.c_str(),
              events.size(), selected.size());

  std::array<std::int64_t, kNumTraceEventKinds> counts{};
  Cycle first = -1;
  Cycle last = -1;
  for (const TraceEvent& e : selected) {
    const auto kind_index = static_cast<std::size_t>(e.kind);
    if (kind_index < counts.size()) ++counts[kind_index];
    if (first < 0) first = e.cycle;
    last = e.cycle;
  }

  if (opts.get_bool("stats", false)) {
    std::printf("cycles [%lld, %lld]\n", static_cast<long long>(first),
                static_cast<long long>(last));
    for (std::size_t i = 0; i < counts.size(); ++i) {
      if (counts[i] == 0) continue;
      std::printf("  %-18s %lld\n",
                  std::string(to_string(static_cast<TraceEventKind>(i))).c_str(),
                  static_cast<long long>(counts[i]));
    }
    return 0;
  }

  for (const TraceEvent& e : selected) {
    std::printf("@%-8lld %-18s", static_cast<long long>(e.cycle),
                std::string(to_string(e.kind)).c_str());
    if (e.message != kInvalidMessage) std::printf(" m%lld", static_cast<long long>(e.message));
    if (e.vc != kInvalidVc) std::printf(" vc%d", e.vc);
    if (e.vc2 != kInvalidVc) std::printf(" <-vc%d", e.vc2);
    if (e.node != kInvalidNode) std::printf(" @n%d", e.node);
    if (e.arg != 0) std::printf(" arg=%d", e.arg);
    std::printf("\n");
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return flexnet::run_main(argc, argv, kOptions, dump, kFlags);
}
