// metrics_tail: watch or summarize a flexnet-metrics-v1 NDJSON stream
// written by `--metrics` (ObsCollector).
//
//   ./tools/metrics_tail run.ndjson            # print records as a table
//   ./tools/metrics_tail run.ndjson --follow   # keep polling for new records
//       (live view of a run in another terminal; stops at the final record
//        or after --idle-limit seconds with no growth, 0 = wait forever)
//   ./tools/metrics_tail run.ndjson --summary  # final/cumulative digest only
//
// The table leads with the precursor columns — score, warning, stall age,
// blocked-component size — because the whole point of the stream is seeing a
// deadlock form before the detector confirms it. The stream is validated as
// it is read: a line that is not a JSON object, a missing or unknown schema
// header, a sample without "cycle", a record after the final summary record
// or a non-integer where an integer belongs fails with
// "<path>:<line>: <reason>" and exit 1, so CI can gate on stream integrity.
#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <string_view>
#include <thread>
#include <utility>

#include "util/json.hpp"
#include "util/options.hpp"

namespace {

using flexnet::JsonValue;

double num(const JsonValue& obj, std::string_view name) {
  const JsonValue* member = obj.find(name);
  return member != nullptr ? member->number : 0.0;
}

// Integers are read exactly from their source text; a fraction fails.
long long integer(const JsonValue& obj, std::string_view name) {
  const JsonValue* member = obj.find(name);
  return member != nullptr ? member->as_int() : 0;
}

bool flag(const JsonValue& obj, std::string_view name) {
  const JsonValue* member = obj.find(name);
  return member != nullptr && member->boolean;
}

void print_header_line(const JsonValue& header) {
  std::printf("# interval %lld, warn threshold %g, stall ref %lld, "
              "%lld node(s) / %lld VC(s)\n",
              integer(header, "interval"), num(header, "warn_threshold"),
              integer(header, "stall_ref"), integer(header, "nodes"),
              integer(header, "vcs"));
  std::printf("%10s %9s %5s %9s %9s %7s %7s %7s %9s %9s %6s %5s  %s\n",
              "cycle", "score", "warn", "stall_max", "stall_hwm", "blocked",
              "reqarc", "comp", "delivered", "lat_p99", "active", "knots",
              "classes");
}

// Message-class names in class_delivered index order (sim/message_class.hpp).
constexpr const char* kClassNames[] = {"bulk", "burst", "interactive",
                                       "control"};

// Compact nonzero per-class delivery summary, e.g. "bulk=41 burst=9".
std::string class_summary(const JsonValue& rec) {
  const JsonValue* classes = rec.find("class_delivered");
  if (classes == nullptr || !classes->is_array()) return "";
  std::string out;
  for (std::size_t k = 0; k < classes->array.size() && k < 4; ++k) {
    const long long n = classes->array[k].as_int();
    if (n == 0) continue;
    if (!out.empty()) out += ' ';
    out += kClassNames[k];
    out += '=';
    out += std::to_string(n);
  }
  return out;
}

// One table row; formatting it reads (and so checks) every integer field.
std::string sample_line(const JsonValue& rec) {
  char row[160];
  std::snprintf(row, sizeof(row),
                "%10lld %9.4f %5s %9lld %9lld %7lld %7lld %7lld %9lld %9.1f "
                "%6lld %5lld  ",
                integer(rec, "cycle"), num(rec, "score"),
                flag(rec, "warning") ? "WARN" : "",
                integer(rec, "max_stall_age"), integer(rec, "stall_hwm"),
                integer(rec, "blocked"), integer(rec, "request_arcs"),
                integer(rec, "largest_component"), integer(rec, "delivered"),
                num(rec, "latency_p99"), integer(rec, "active_routers"),
                integer(rec, "det_knots"));
  return row + class_summary(rec) + "\n";
}

void print_final(const JsonValue& rec) {
  std::printf("final: %lld sample(s), %lld warning(s), peak score %.4f\n",
              integer(rec, "samples"), integer(rec, "warnings"),
              num(rec, "peak_score"));
  std::printf("       first warning @ %lld, first confirmation @ %lld, "
              "lead %lld cycle(s)\n",
              integer(rec, "first_warning_cycle"),
              integer(rec, "first_confirmation_cycle"),
              integer(rec, "lead_cycles"));
  const JsonValue* latency = rec.find("latency");
  if (latency != nullptr) {
    std::printf("       latency p50 %.1f / p99 %.1f / p999 %.1f / max %lld "
                "(%lld delivered)\n",
                num(*latency, "p50"), num(*latency, "p99"),
                num(*latency, "p999"), integer(*latency, "max"),
                integer(*latency, "count"));
  }
  const JsonValue* stall = rec.find("stall_age");
  if (stall != nullptr) {
    std::printf("       stall age p50 %.1f / p99 %.1f / max %lld, "
                "hwm %lld\n",
                num(*stall, "p50"), num(*stall, "p99"), integer(*stall, "max"),
                integer(rec, "stall_hwm"));
  }
  const JsonValue* classes = rec.find("classes");
  if (classes != nullptr && classes->is_object()) {
    for (const auto& [name, cls] : classes->object) {
      if (integer(cls, "delivered") == 0) continue;
      std::printf("       class %-11s %lld delivered, latency p50 %.1f / "
                  "p99 %.1f / max %lld\n",
                  name.c_str(), integer(cls, "delivered"),
                  num(cls, "latency_p50"), num(cls, "latency_p99"),
                  integer(cls, "latency_max"));
    }
  }
}

// Every option this tool reads, and those of them that take no value.
constexpr std::string_view kOptions[] = {"follow", "summary", "idle-limit"};
constexpr std::string_view kFlags[] = {"follow", "summary"};

int tail(const flexnet::Options& opts) {
  if (opts.positional().size() != 1) {
    std::fprintf(stderr,
                 "usage: metrics_tail STREAM.ndjson [--follow] [--summary] "
                 "[--idle-limit SECONDS]\n");
    return 1;
  }
  const std::string& path = opts.positional().front();
  const bool follow = opts.get_bool("follow", false);
  const bool summary = opts.get_bool("summary", false);
  const long long idle_limit = opts.get_int("idle-limit", 30);

  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return 1;
  }

  std::string line;
  std::size_t lineno = 0;
  auto fail = [&](const std::string& reason) {
    std::fprintf(stderr, "%s:%zu: %s\n", path.c_str(), lineno, reason.c_str());
    return 1;
  };
  long long idle_polls = 0;
  bool saw_final = false;
  std::string last_sample;  // --summary: the newest sample's row
  for (;;) {
    if (!std::getline(in, line)) {
      if (in.bad()) {
        std::fprintf(stderr, "%s:%zu: read error\n", path.c_str(), lineno + 1);
        return 1;
      }
      if (!follow || saw_final) break;
      // Poll for growth: clear EOF, wait, retry from the same offset.
      if (idle_limit > 0 && ++idle_polls > idle_limit * 5) {
        std::fprintf(stderr, "%s: no growth for %llds, giving up\n",
                     path.c_str(), idle_limit);
        break;
      }
      in.clear();
      std::this_thread::sleep_for(std::chrono::milliseconds(200));
      continue;
    }
    idle_polls = 0;
    ++lineno;
    try {
      const JsonValue rec = JsonValue::parse(line);
      if (!rec.is_object()) return fail("record is not a JSON object");
      if (saw_final) return fail("record after the final summary record");
      if (lineno == 1) {
        const JsonValue* schema = rec.find("schema");
        if (schema == nullptr || schema->string != "flexnet-metrics-v1") {
          return fail("missing or unknown schema (want flexnet-metrics-v1 "
                      "header record)");
        }
        if (!summary) print_header_line(rec);
        continue;
      }
      if (flag(rec, "final")) {
        saw_final = true;
        print_final(rec);
        if (follow) break;
        continue;
      }
      if (rec.find("cycle") == nullptr) {
        return fail("sample record has no \"cycle\" field");
      }
      std::string row = sample_line(rec);
      if (summary) {
        last_sample = std::move(row);
      } else {
        std::fputs(row.c_str(), stdout);
      }
    } catch (const std::exception& e) {
      return fail(e.what());
    }
  }
  if (lineno == 0) {
    lineno = 1;
    return fail("empty metrics stream (no header record)");
  }
  if (summary && !saw_final && !last_sample.empty()) {
    std::printf("(no final record yet) last sample:\n");
    print_header_line(JsonValue{});
    std::fputs(last_sample.c_str(), stdout);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return flexnet::run_main(argc, argv, kOptions, tail, kFlags);
}
