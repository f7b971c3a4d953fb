#include "util/options.hpp"

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

namespace flexnet {

namespace {
[[noreturn]] void bad_value(std::string_view name, const std::string& value,
                            const char* expected) {
  throw std::invalid_argument("option --" + std::string(name) + " expects " +
                              expected + ", got '" + value + "'");
}
}  // namespace

std::optional<Options> Options::parse(
    int argc, const char* const* argv, std::string* error,
    std::span<const std::string_view> flags) {
  Options opts;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      opts.positional_.emplace_back(arg);
      continue;
    }
    std::string_view body = arg.substr(2);
    if (body.empty()) {
      if (error) *error = "bare '--' is not a valid option";
      return std::nullopt;
    }
    const auto eq = body.find('=');
    if (eq != std::string_view::npos) {
      opts.values_[std::string(body.substr(0, eq))] =
          std::string(body.substr(eq + 1));
      continue;
    }
    // `--name value` if the next token is not itself an option and `name`
    // is not a declared flag; otherwise a bare flag.
    const bool flag =
        std::find(flags.begin(), flags.end(), body) != flags.end();
    if (!flag && i + 1 < argc &&
        std::string_view(argv[i + 1]).rfind("--", 0) != 0) {
      opts.values_[std::string(body)] = argv[i + 1];
      ++i;
    } else {
      opts.values_[std::string(body)] = std::nullopt;
    }
  }
  return opts;
}

bool Options::has(std::string_view name) const {
  return values_.find(name) != values_.end();
}

const std::string* Options::value_of(std::string_view name) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return nullptr;
  if (!it->second) {
    throw std::invalid_argument("option --" + std::string(name) +
                                " expects a value");
  }
  return &*it->second;
}

std::string Options::get(std::string_view name, std::string def) const {
  const std::string* v = value_of(name);
  return v == nullptr ? std::move(def) : *v;
}

long long Options::get_int(std::string_view name, long long def) const {
  const std::string* found = value_of(name);
  if (found == nullptr) return def;
  const std::string& v = *found;
  long long value = 0;
  const char* first = v.c_str();
  if (*first == '+') ++first;  // from_chars rejects an explicit plus sign
  const auto [end, ec] = std::from_chars(first, v.c_str() + v.size(), value);
  if (ec == std::errc::result_out_of_range) {
    bad_value(name, v, "an integer in range (value overflows)");
  }
  if (ec != std::errc{} || end != v.c_str() + v.size() || first == end) {
    bad_value(name, v, "an integer");
  }
  return value;
}

double Options::get_double(std::string_view name, double def) const {
  const std::string* found = value_of(name);
  if (found == nullptr) return def;
  const std::string& v = *found;
  errno = 0;
  char* end = nullptr;
  const double value = std::strtod(v.c_str(), &end);
  if (end == v.c_str() || *end != '\0') bad_value(name, v, "a number");
  if (errno == ERANGE && std::isinf(value)) {
    bad_value(name, v, "a finite number (value overflows)");
  }
  return value;
}

bool Options::get_bool(std::string_view name, bool def) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return def;
  if (!it->second) return true;  // bare --flag
  const std::string& v = *it->second;
  if (v == "1" || v == "true" || v == "yes" || v == "on") return true;
  if (v == "0" || v == "false" || v == "no" || v == "off") return false;
  bad_value(name, v, "a boolean (1/0, true/false, yes/no, on/off)");
}

void Options::reject_unknown(std::span<const std::string_view> known) const {
  for (const auto& entry : values_) {
    if (std::find(known.begin(), known.end(), entry.first) == known.end()) {
      throw std::invalid_argument("unknown option --" + entry.first);
    }
  }
}

int run_main(int argc, const char* const* argv,
             std::span<const std::string_view> known,
             int (*run)(const Options&),
             std::span<const std::string_view> flags) {
  std::string error;
  const std::optional<Options> opts = Options::parse(argc, argv, &error, flags);
  if (!opts) {
    std::fprintf(stderr, "argument error: %s\n", error.c_str());
    return 1;
  }
  try {
    opts->reject_unknown(known);
    return run(*opts);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}

double bench_scale() {
  if (const char* env = std::getenv("FLEXNET_BENCH_SCALE")) {
    const double v = std::strtod(env, nullptr);
    if (v > 0.0) return v;
  }
  return 1.0;
}

}  // namespace flexnet
