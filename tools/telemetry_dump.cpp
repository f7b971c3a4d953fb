// telemetry_dump: inspect a telemetry run manifest written by
// --telemetry-json (write_manifest_json), or validate/summarize a
// flexnet-metrics-v1 NDJSON stream written by --metrics.
//
//   ./tools/telemetry_dump run.json               # human-readable summary
//   ./tools/telemetry_dump run.json --series      # interval series as CSV
//   ./tools/telemetry_dump run.json --hot         # hot-channel table only
//   ./tools/telemetry_dump run.json.p0 run.json.p1   # several sweep points
//   ./tools/telemetry_dump --metrics run.ndjson   # validate + summarize; a
//       truncated or garbage line fails with "<path>:<line>: ..." and exit 1
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>

#include "util/json.hpp"
#include "util/options.hpp"

namespace {

using flexnet::JsonValue;

double num(const JsonValue& obj, std::string_view name) {
  const JsonValue* member = obj.find(name);
  return member != nullptr ? member->number : 0.0;
}

// Integers are read exactly from their source text (a double cannot hold a
// 64-bit seed); a non-integer value fails loudly.
std::int64_t integer(const JsonValue& obj, std::string_view name) {
  const JsonValue* member = obj.find(name);
  return member != nullptr ? member->as_int() : 0;
}

std::uint64_t unsigned_integer(const JsonValue& obj, std::string_view name) {
  const JsonValue* member = obj.find(name);
  return member != nullptr ? member->as_uint() : 0;
}

std::string str(const JsonValue& obj, std::string_view name) {
  const JsonValue* member = obj.find(name);
  return member != nullptr && member->is_string() ? member->string : "?";
}

void print_summary(const JsonValue& root) {
  const JsonValue& config = root.at("config");
  const JsonValue& sim = config.at("sim");
  const JsonValue& traffic = config.at("traffic");
  const JsonValue& result = root.at("result");
  const JsonValue& window = result.at("window");
  const JsonValue* build = root.find("build");

  std::printf("schema    %s  (build %s)\n", str(root, "schema").c_str(),
              build != nullptr ? str(*build, "git_sha").c_str() : "?");
  std::printf("network   %lld-ary %lld-cube, %lld VC(s), depth %lld, %s\n",
              static_cast<long long>(integer(sim, "k")),
              static_cast<long long>(integer(sim, "n")),
              static_cast<long long>(integer(sim, "vcs")),
              static_cast<long long>(integer(sim, "buffer_depth")),
              str(sim, "routing").c_str());
  std::printf("traffic   %s @ load %.4f (seed %llu)\n",
              str(traffic, "pattern").c_str(), num(traffic, "load"),
              static_cast<unsigned long long>(unsigned_integer(sim, "seed")));
  std::printf("result    norm throughput %.4f, accepted %.4f%s\n",
              num(result, "normalized_throughput"),
              num(result, "accepted_ratio"),
              result.at("saturated").boolean ? ", SATURATED" : "");
  std::printf("          deadlocks %lld, avg latency %.1f\n",
              static_cast<long long>(integer(window, "deadlocks")),
              num(window, "avg_latency"));

  const JsonValue& series = root.at("series");
  std::printf("series    %lld samples every %lld cycles (%lld dropped)\n",
              static_cast<long long>(series.at("samples").array.size()),
              static_cast<long long>(integer(series, "interval")),
              static_cast<long long>(integer(series, "dropped")));

  const JsonValue& heatmap = root.at("heatmap");
  std::printf("heatmap   %lld traversals, %lld blocked cycles, "
              "%lld injection-stall cycles\n",
              static_cast<long long>(integer(heatmap, "total_traversals")),
              static_cast<long long>(integer(heatmap, "total_blocked_cycles")),
              static_cast<long long>(
                  integer(heatmap, "total_injection_stall_cycles")));

  const JsonValue& profile = root.at("profile");
  std::printf("profile   %.3f ms total\n",
              num(profile, "total_ns") / 1e6);
}

void print_series_csv(const JsonValue& root) {
  const JsonValue& samples = root.at("series").at("samples");
  bool header = false;
  for (const JsonValue& sample : samples.array) {
    if (!header) {
      header = true;
      bool first = true;
      for (const auto& [name, value] : sample.object) {
        (void)value;
        std::printf("%s%s", first ? "" : ",", name.c_str());
        first = false;
      }
      std::printf("\n");
    }
    bool first = true;
    for (const auto& [name, value] : sample.object) {
      (void)name;
      std::printf("%s%g", first ? "" : ",", value.number);
      first = false;
    }
    std::printf("\n");
  }
}

void print_hot_channels(const JsonValue& root) {
  const JsonValue& hot = root.at("heatmap").at("hot_channels");
  std::printf("%8s %6s %6s %4s %4s %12s %12s %12s\n", "channel", "src", "dst",
              "dim", "dir", "traversals", "busy", "blocked");
  for (const JsonValue& c : hot.array) {
    std::printf("%8lld %6lld %6lld %4lld %4lld %12lld %12lld %12lld\n",
                static_cast<long long>(integer(c, "channel")),
                static_cast<long long>(integer(c, "src")),
                static_cast<long long>(integer(c, "dst")),
                static_cast<long long>(integer(c, "dim")),
                static_cast<long long>(integer(c, "dir")),
                static_cast<long long>(integer(c, "traversals")),
                static_cast<long long>(integer(c, "busy_cycles")),
                static_cast<long long>(integer(c, "blocked_cycles")));
  }
}

// Validates a flexnet-metrics-v1 NDJSON stream line by line and prints a
// summary. Any malformed line — truncated JSON, non-object, wrong schema —
// fails loudly with "<path>:<line>: <reason>" and a nonzero exit, so CI can
// gate on stream integrity.
int dump_metrics(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return 1;
  }
  auto fail = [&](std::size_t line, const std::string& reason) {
    std::fprintf(stderr, "%s:%zu: %s\n", path.c_str(), line, reason.c_str());
    return 1;
  };

  std::string line;
  std::size_t lineno = 0;
  std::int64_t samples = 0;
  std::int64_t warnings = 0;
  double peak_score = 0.0;
  double first_cycle = -1.0, last_cycle = -1.0;
  bool saw_final = false;
  JsonValue header, final_record;
  while (std::getline(in, line)) {
    ++lineno;
    JsonValue rec;
    try {
      rec = JsonValue::parse(line);
    } catch (const std::exception& e) {
      return fail(lineno, e.what());
    }
    if (!rec.is_object()) return fail(lineno, "record is not a JSON object");
    if (saw_final) return fail(lineno, "record after the final summary record");
    if (lineno == 1) {
      if (str(rec, "schema") != "flexnet-metrics-v1") {
        return fail(lineno, "missing or unknown schema (want "
                            "flexnet-metrics-v1 header record)");
      }
      header = rec;
      continue;
    }
    const JsonValue* final_flag = rec.find("final");
    if (final_flag != nullptr && final_flag->boolean) {
      final_record = rec;
      saw_final = true;
      continue;
    }
    if (rec.find("cycle") == nullptr) {
      return fail(lineno, "sample record has no \"cycle\" field");
    }
    ++samples;
    if (first_cycle < 0) first_cycle = num(rec, "cycle");
    last_cycle = num(rec, "cycle");
    peak_score = std::max(peak_score, num(rec, "score"));
    const JsonValue* warning = rec.find("warning");
    if (warning != nullptr && warning->boolean) ++warnings;
  }
  if (in.bad()) return fail(lineno, "read error");
  if (lineno == 0) return fail(1, "empty metrics stream (no header record)");

  std::printf("metrics   %s, interval %lld, warn threshold %g, stall ref %lld\n",
              str(header, "schema").c_str(),
              static_cast<long long>(integer(header, "interval")),
              num(header, "warn_threshold"),
              static_cast<long long>(integer(header, "stall_ref")));
  std::printf("shape     %lld node(s), %lld VC(s), %lld channel(s)\n",
              static_cast<long long>(integer(header, "nodes")),
              static_cast<long long>(integer(header, "vcs")),
              static_cast<long long>(integer(header, "channels")));
  std::printf("stream    %lld sample(s), cycles %lld..%lld, %lld warning "
              "record(s), peak score %.4f\n",
              static_cast<long long>(samples),
              static_cast<long long>(first_cycle),
              static_cast<long long>(last_cycle),
              static_cast<long long>(warnings), peak_score);
  if (saw_final) {
    const long long warn_at = integer(final_record, "first_warning_cycle");
    const long long confirm_at =
        integer(final_record, "first_confirmation_cycle");
    const long long lead = integer(final_record, "lead_cycles");
    std::printf("final     %lld warning(s), first warning @ %lld, first "
                "confirmation @ %lld, lead %lld cycle(s)\n",
                static_cast<long long>(integer(final_record, "warnings")),
                warn_at, confirm_at, lead);
    const JsonValue* latency = final_record.find("latency");
    if (latency != nullptr) {
      std::printf("latency   count %lld, mean %.2f, p50 %.1f, p99 %.1f, "
                  "p999 %.1f, max %lld\n",
                  static_cast<long long>(integer(*latency, "count")),
                  num(*latency, "mean"), num(*latency, "p50"),
                  num(*latency, "p99"), num(*latency, "p999"),
                  static_cast<long long>(integer(*latency, "max")));
    }
  } else {
    std::printf("final     (none — run still in progress or cut short)\n");
  }
  return 0;
}

// Every option this tool reads.
constexpr std::string_view kOptions[] = {"metrics", "series", "hot"};

int dump(const flexnet::Options& opts) {
  if (opts.has("metrics")) return dump_metrics(opts.get("metrics"));
  const bool series = opts.get_bool("series", false);
  const bool hot = opts.get_bool("hot", false);
  if (opts.positional().empty()) {
    std::fprintf(stderr,
                 "usage: telemetry_dump MANIFEST... [--series] [--hot]\n"
                 "       telemetry_dump --metrics STREAM.ndjson\n");
    return 1;
  }

  bool first = true;
  for (const std::string& path : opts.positional()) {
    std::ifstream in(path, std::ios::binary);
    if (!in) {
      std::fprintf(stderr, "cannot open %s\n", path.c_str());
      return 1;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();

    JsonValue root;
    try {
      root = JsonValue::parse(buffer.str());
      if (!first) std::printf("\n");
      first = false;
      if (opts.positional().size() > 1) std::printf("== %s ==\n", path.c_str());
      if (series) {
        print_series_csv(root);
      } else if (hot) {
        print_hot_channels(root);
      } else {
        print_summary(root);
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error reading %s: %s\n", path.c_str(), e.what());
      return 1;
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return flexnet::run_main(argc, argv, kOptions, dump);
}
