// telemetry_dump: inspect a telemetry run manifest written by
// --telemetry-json (write_manifest_json). A --metrics NDJSON stream is read
// by metrics_tail.
//
//   ./tools/telemetry_dump run.json               # human-readable summary
//   ./tools/telemetry_dump run.json --series      # interval series as CSV
//   ./tools/telemetry_dump run.json --hot         # hot-channel table only
//   ./tools/telemetry_dump run.json.p0 run.json.p1   # several sweep points
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>

#include "sim/message_class.hpp"
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

// One row per sample, each number in the manifest's own digits (so
// integers stay exact at any size); class_delivered, an array indexed by
// message class, becomes one column per class.
void print_series_csv(const JsonValue& root) {
  const JsonValue& samples = root.at("series").at("samples");
  for (std::size_t i = 0; i < samples.array.size(); ++i) {
    std::string header;
    std::string row;
    const auto cell = [&](const std::string& name, const JsonValue& value) {
      if (!value.is_number()) {
        throw std::runtime_error("series field " + name + " is not a number");
      }
      const char* sep = header.empty() ? "" : ",";
      header += sep + name;
      row += sep + value.number_text;
    };
    for (const auto& [name, value] : samples.array[i].object) {
      if (!value.is_array()) {
        cell(name, value);
        continue;
      }
      if (value.array.size() != flexnet::kNumMessageClasses) {
        throw std::runtime_error("series field " + name +
                                 " does not hold one entry per class");
      }
      for (const flexnet::MessageClass cls : flexnet::all_message_classes()) {
        cell(name + "_" + std::string(flexnet::to_string(cls)),
             value.array[flexnet::class_index(cls)]);
      }
    }
    if (i == 0) std::printf("%s\n", header.c_str());
    std::printf("%s\n", row.c_str());
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

// Every option this tool reads; each takes no value.
constexpr std::string_view kOptions[] = {"series", "hot"};

int dump(const flexnet::Options& opts) {
  const bool series = opts.get_bool("series", false);
  const bool hot = opts.get_bool("hot", false);
  if (opts.positional().empty()) {
    std::fprintf(stderr,
                 "usage: telemetry_dump MANIFEST... [--series] [--hot]\n");
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
  return flexnet::run_main(argc, argv, kOptions, dump, kOptions);
}
