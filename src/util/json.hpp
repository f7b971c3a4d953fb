// Minimal JSON support for machine-readable run artifacts.
//
//  * JsonWriter — streaming, indentation-aware writer. Numbers are emitted
//    with std::to_chars (shortest round-trip form), so identical values
//    always serialize to identical bytes — the property the telemetry
//    manifest's determinism guarantee rests on.
//  * JsonValue  — a small recursive-descent parser for reading manifests
//    back (tools/telemetry_dump, round-trip tests). Object member order is
//    preserved. Numbers are held as doubles plus their source text, so
//    integers read back exactly at full 64-bit width (seeds are full-range
//    splitmix64 values).
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace flexnet {

class JsonWriter {
 public:
  /// Streams to `out`, which must outlive the writer. `indent` spaces per
  /// nesting level; 0 writes compact single-line JSON.
  explicit JsonWriter(std::ostream& out, int indent = 2)
      : out_(&out), indent_(indent < 0 ? 0 : indent) {}

  JsonWriter& begin_object();
  JsonWriter& end_object();
  JsonWriter& begin_array();
  JsonWriter& end_array();

  /// Member key inside an object; must be followed by a value or container.
  JsonWriter& key(std::string_view name);

  JsonWriter& value(std::string_view v);
  JsonWriter& value(const char* v) { return value(std::string_view(v)); }
  JsonWriter& value(bool v);
  JsonWriter& value(double v);
  JsonWriter& value(std::int64_t v);
  JsonWriter& value(std::uint64_t v);
  JsonWriter& value(int v) { return value(static_cast<std::int64_t>(v)); }
  JsonWriter& null();

  /// key() + value() in one call.
  template <typename T>
  JsonWriter& field(std::string_view name, T&& v) {
    key(name);
    return value(std::forward<T>(v));
  }

  /// Appends a JSON string literal (quoted, escaped) to `out`.
  static void write_escaped(std::ostream& out, std::string_view s);

 private:
  struct Level {
    bool array = false;
    bool first = true;
  };

  void before_value();
  void newline_indent();

  std::ostream* out_;
  int indent_;
  std::vector<Level> stack_;
  bool key_pending_ = false;
};

struct JsonValue {
  enum class Type : std::uint8_t { Null, Bool, Number, String, Array, Object };

  Type type = Type::Null;
  bool boolean = false;
  double number = 0.0;
  std::string number_text;  ///< A number's source text.
  std::string string;
  std::vector<JsonValue> array;
  /// Members in document order.
  std::vector<std::pair<std::string, JsonValue>> object;

  /// Parses one JSON document (trailing whitespace allowed, nothing else).
  /// Throws std::runtime_error with an offset-bearing message on bad input.
  [[nodiscard]] static JsonValue parse(std::string_view text);

  [[nodiscard]] bool is_object() const noexcept { return type == Type::Object; }
  [[nodiscard]] bool is_array() const noexcept { return type == Type::Array; }
  [[nodiscard]] bool is_number() const noexcept { return type == Type::Number; }
  [[nodiscard]] bool is_string() const noexcept { return type == Type::String; }

  /// Object member lookup; nullptr when absent or not an object.
  [[nodiscard]] const JsonValue* find(std::string_view name) const noexcept;
  /// find() that throws std::runtime_error when the member is missing.
  [[nodiscard]] const JsonValue& at(std::string_view name) const;

  /// The number read exactly from its source text. Throws
  /// std::runtime_error for a non-number, a fraction or exponent, or a value
  /// out of the type's range.
  [[nodiscard]] std::int64_t as_int() const;
  [[nodiscard]] std::uint64_t as_uint() const;
};

}  // namespace flexnet
