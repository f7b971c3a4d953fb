// workload_dump: inspect flexnet workload inputs — a flexnet-trace-v1
// recorded message stream or a flexnet-pace-v1 phase schedule — without
// running a simulation.
//
//   ./tools/workload_dump run.trace             # header, class mix, rates
//   ./tools/workload_dump run.trace --head 20   # also list the first N msgs
//   ./tools/workload_dump profile.pace          # phase table, mean/max rate
//   ./tools/workload_dump --spec 'burst(100,0.2,4)'   # built-in pace spec
//
// The file kind is sniffed from the magic line; parse errors exit 1 with the
// parser's own <path>:<line>: message.
#include <cstdio>
#include <fstream>
#include <string>
#include <string_view>

#include "sim/message_class.hpp"
#include "util/options.hpp"
#include "workload/pace.hpp"
#include "workload/trace_file.hpp"

namespace {

using namespace flexnet;

void dump_trace(const std::string& path, long long head) {
  const TraceData data = read_trace_file(path);
  const TraceHeader& h = data.header;
  std::printf("flexnet-trace-v1: %s\n", path.c_str());
  std::printf("  nodes           %d\n", h.nodes);
  std::printf("  pattern         %s (load %g)\n",
              std::string(to_string(h.traffic.pattern)).c_str(),
              h.traffic.load);
  if (h.traffic.hybrid_fraction > 0.0) {
    std::printf("  hybrid          %.0f%% %s\n",
                h.traffic.hybrid_fraction * 100.0,
                std::string(to_string(h.traffic.hybrid_with)).c_str());
  }
  std::printf("  avg distance    %g\n", h.avg_distance);
  std::printf("  capacity        %g flits/node/cycle\n", h.capacity);
  std::printf("  offered         %g flits/node/cycle\n", h.offered);
  std::printf("  records         %zu\n", data.records.size());
  std::printf("  content hash    %016llx\n",
              static_cast<unsigned long long>(data.content_hash()));

  if (!data.records.empty()) {
    const Cycle first = data.records.front().cycle;
    const Cycle last = data.records.back().cycle;
    std::int64_t flits = 0;
    std::int64_t by_class[kNumMessageClasses] = {};
    for (const TraceRecord& r : data.records) {
      flits += r.length;
      ++by_class[class_index(r.cls)];
    }
    std::printf("  cycle span      %lld..%lld\n",
                static_cast<long long>(first), static_cast<long long>(last));
    if (last > first) {
      const double cycles = static_cast<double>(last - first + 1);
      std::printf("  mean rate       %.4f msg/cycle, %.4f flits/node/cycle\n",
                  static_cast<double>(data.records.size()) / cycles,
                  static_cast<double>(flits) / cycles /
                      static_cast<double>(h.nodes));
    }
    std::printf("  class mix      ");
    for (const MessageClass cls : all_message_classes()) {
      const std::int64_t n = by_class[class_index(cls)];
      if (n == 0) continue;
      std::printf(" %s=%lld", std::string(to_string(cls)).c_str(),
                  static_cast<long long>(n));
    }
    std::printf("\n");
  }

  for (long long i = 0; i < head && i < static_cast<long long>(data.records.size());
       ++i) {
    const TraceRecord& r = data.records[static_cast<std::size_t>(i)];
    std::printf("  msg %lld %d -> %d len %d %s\n",
                static_cast<long long>(r.cycle), r.src, r.dst, r.length,
                std::string(to_string(r.cls)).c_str());
  }
}

void dump_pace(const PaceProfile& profile, const std::string& origin) {
  std::printf("flexnet-pace-v1: %s\n", origin.c_str());
  std::printf("  phases          %zu (%s)\n", profile.phases().size(),
              profile.repeat() ? "repeating" : "clamp at end");
  std::printf("  mean multiplier %.4f\n", profile.mean_multiplier());
  std::printf("  max multiplier  %.4f\n", profile.max_multiplier());
  std::printf("  content hash    %016llx\n",
              static_cast<unsigned long long>(profile.content_hash()));
  Cycle at = 0;
  for (const PacePhase& p : profile.phases()) {
    std::printf("  phase @%-8lld %lld cycle(s), rate %g -> %g, class %s\n",
                static_cast<long long>(at), static_cast<long long>(p.cycles),
                p.rate0, p.rate1, std::string(to_string(p.cls)).c_str());
    at += p.cycles;
  }
}

// Every option this tool reads.
constexpr std::string_view kOptions[] = {"spec", "head"};

int dump(const Options& opts) {
  const bool has_spec = opts.has("spec");
  if (opts.positional().size() + (has_spec ? 1 : 0) != 1) {
    std::fprintf(stderr,
                 "usage: workload_dump FILE.trace|FILE.pace [--head N]\n"
                 "       workload_dump --spec 'burst(period,duty,peak)'\n");
    return 1;
  }
  if (has_spec) {
    dump_pace(parse_pace_spec(opts.get("spec")), opts.get("spec"));
    return 0;
  }
  const std::string& path = opts.positional().front();
  std::ifstream probe(path);
  if (!probe) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return 1;
  }
  std::string magic;
  std::getline(probe, magic);
  probe.close();
  if (magic == kPaceMagic) {
    dump_pace(load_pace_file(path), path);
  } else {
    // Anything else goes through the trace parser, whose bad-magic error
    // names the expected format.
    dump_trace(path, opts.get_int("head", 0));
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return flexnet::run_main(argc, argv, kOptions, dump);
}
