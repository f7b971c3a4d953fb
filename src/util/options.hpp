// Minimal command-line option parser for examples and bench binaries.
//
// Supports `--name value`, `--name=value` and boolean `--flag` forms; every
// option declares a default so binaries are runnable with no arguments. A
// binary that takes positional arguments declares its boolean flags, so that
// `--flag FILE` leaves FILE positional. A value that does not fit its getter
// fails loudly with std::invalid_argument naming the option, never with a
// silent default.
#pragma once

#include <map>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace flexnet {

class Options {
 public:
  /// Parses argv; returns std::nullopt and fills `error` on malformed input.
  /// A name in `flags` never takes the next token as its value (`--name=0`
  /// still gives one); any other `--name` takes it unless it is an option.
  static std::optional<Options> parse(
      int argc, const char* const* argv, std::string* error = nullptr,
      std::span<const std::string_view> flags = {});

  [[nodiscard]] bool has(std::string_view name) const;
  /// The option's value, or `def` when absent. A bare `--name` (no value)
  /// throws std::invalid_argument: it is a flag, not a path or a word.
  [[nodiscard]] std::string get(std::string_view name,
                                std::string def = {}) const;
  /// Numeric getters parse the FULL value: trailing garbage ("1e9x"), empty
  /// values and out-of-range magnitudes throw std::invalid_argument naming
  /// the option, instead of silently truncating (strtoll's behavior).
  [[nodiscard]] long long get_int(std::string_view name, long long def) const;
  [[nodiscard]] double get_double(std::string_view name, double def) const;
  /// A bare `--name` is true; a value must be 1/0, true/false, yes/no or
  /// on/off, and anything else throws std::invalid_argument.
  [[nodiscard]] bool get_bool(std::string_view name, bool def) const;

  /// Throws std::invalid_argument naming the first option given that is not
  /// in `known`, so a misspelled flag fails instead of running the default.
  void reject_unknown(std::span<const std::string_view> known) const;

  /// Positional (non --option) arguments in order.
  [[nodiscard]] const std::vector<std::string>& positional() const {
    return positional_;
  }

 private:
  /// The value given, or nullptr when the option is absent; throws
  /// std::invalid_argument when it was given bare.
  [[nodiscard]] const std::string* value_of(std::string_view name) const;

  /// Each option's value; std::nullopt for a bare `--name`.
  std::map<std::string, std::optional<std::string>, std::less<>> values_;
  std::vector<std::string> positional_;
};

/// A binary's main(): parses argv with the boolean `flags` (see parse),
/// rejects any option not in `known`, and returns `run`'s exit code. A
/// malformed command line, an unknown option or an exception thrown by `run`
/// is printed to stderr and returns 1.
int run_main(int argc, const char* const* argv,
             std::span<const std::string_view> known,
             int (*run)(const Options&),
             std::span<const std::string_view> flags = {});

/// Reads a scale factor from the FLEXNET_BENCH_SCALE environment variable
/// (default 1.0); bench binaries multiply their warmup/measure windows by it
/// so CI can run quick smoke passes.
[[nodiscard]] double bench_scale();

}  // namespace flexnet
