#include "util/json.hpp"

#include <charconv>
#include <cmath>
#include <cstdlib>
#include <stdexcept>

namespace flexnet {

// --- JsonWriter -------------------------------------------------------------

void JsonWriter::newline_indent() {
  if (indent_ == 0) return;
  *out_ << '\n';
  for (std::size_t i = 0; i < stack_.size(); ++i) {
    for (int s = 0; s < indent_; ++s) *out_ << ' ';
  }
}

void JsonWriter::before_value() {
  if (key_pending_) {
    key_pending_ = false;
    return;
  }
  if (stack_.empty()) return;
  Level& level = stack_.back();
  if (!level.array) {
    throw std::logic_error("JsonWriter: object member written without key()");
  }
  if (!level.first) *out_ << ',';
  level.first = false;
  newline_indent();
}

JsonWriter& JsonWriter::key(std::string_view name) {
  if (stack_.empty() || stack_.back().array || key_pending_) {
    throw std::logic_error("JsonWriter: key() outside an object");
  }
  Level& level = stack_.back();
  if (!level.first) *out_ << ',';
  level.first = false;
  newline_indent();
  write_escaped(*out_, name);
  *out_ << (indent_ > 0 ? ": " : ":");
  key_pending_ = true;
  return *this;
}

JsonWriter& JsonWriter::begin_object() {
  before_value();
  *out_ << '{';
  stack_.push_back(Level{false, true});
  return *this;
}

JsonWriter& JsonWriter::end_object() {
  if (stack_.empty() || stack_.back().array || key_pending_) {
    throw std::logic_error("JsonWriter: mismatched end_object()");
  }
  const bool empty = stack_.back().first;
  stack_.pop_back();
  if (!empty) newline_indent();
  *out_ << '}';
  return *this;
}

JsonWriter& JsonWriter::begin_array() {
  before_value();
  *out_ << '[';
  stack_.push_back(Level{true, true});
  return *this;
}

JsonWriter& JsonWriter::end_array() {
  if (stack_.empty() || !stack_.back().array) {
    throw std::logic_error("JsonWriter: mismatched end_array()");
  }
  const bool empty = stack_.back().first;
  stack_.pop_back();
  if (!empty) newline_indent();
  *out_ << ']';
  return *this;
}

JsonWriter& JsonWriter::value(std::string_view v) {
  before_value();
  write_escaped(*out_, v);
  return *this;
}

JsonWriter& JsonWriter::value(bool v) {
  before_value();
  *out_ << (v ? "true" : "false");
  return *this;
}

JsonWriter& JsonWriter::value(double v) {
  before_value();
  if (!std::isfinite(v)) {  // JSON has no NaN/Inf; the manifest uses null
    *out_ << "null";
    return *this;
  }
  char buf[32];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  out_->write(buf, res.ptr - buf);
  return *this;
}

JsonWriter& JsonWriter::value(std::int64_t v) {
  before_value();
  *out_ << v;
  return *this;
}

JsonWriter& JsonWriter::value(std::uint64_t v) {
  before_value();
  *out_ << v;
  return *this;
}

JsonWriter& JsonWriter::null() {
  before_value();
  *out_ << "null";
  return *this;
}

void JsonWriter::write_escaped(std::ostream& out, std::string_view s) {
  out << '"';
  for (const char c : s) {
    switch (c) {
      case '"': out << "\\\""; break;
      case '\\': out << "\\\\"; break;
      case '\n': out << "\\n"; break;
      case '\r': out << "\\r"; break;
      case '\t': out << "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out << buf;
        } else {
          out << c;
        }
    }
  }
  out << '"';
}

// --- JsonValue parser -------------------------------------------------------

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  JsonValue parse_document() {
    JsonValue v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after JSON document");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw std::runtime_error("JSON parse error at offset " +
                             std::to_string(pos_) + ": " + what);
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  JsonValue parse_value() {
    skip_ws();
    switch (peek()) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"': {
        JsonValue v;
        v.type = JsonValue::Type::String;
        v.string = parse_string();
        return v;
      }
      case 't': {
        if (!consume_literal("true")) fail("bad literal");
        JsonValue v;
        v.type = JsonValue::Type::Bool;
        v.boolean = true;
        return v;
      }
      case 'f': {
        if (!consume_literal("false")) fail("bad literal");
        JsonValue v;
        v.type = JsonValue::Type::Bool;
        return v;
      }
      case 'n':
        if (!consume_literal("null")) fail("bad literal");
        return JsonValue{};
      default: return parse_number();
    }
  }

  JsonValue parse_object() {
    expect('{');
    JsonValue v;
    v.type = JsonValue::Type::Object;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    while (true) {
      skip_ws();
      std::string name = parse_string();
      skip_ws();
      expect(':');
      v.object.emplace_back(std::move(name), parse_value());
      skip_ws();
      const char c = peek();
      ++pos_;
      if (c == '}') return v;
      if (c != ',') fail("expected ',' or '}' in object");
    }
  }

  JsonValue parse_array() {
    expect('[');
    JsonValue v;
    v.type = JsonValue::Type::Array;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    while (true) {
      v.array.push_back(parse_value());
      skip_ws();
      const char c = peek();
      ++pos_;
      if (c == ']') return v;
      if (c != ',') fail("expected ',' or ']' in array");
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else fail("bad \\u escape digit");
          }
          // UTF-8 encode the code point (manifests only use the BMP).
          if (code < 0x80) {
            out.push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out.push_back(static_cast<char>(0xC0 | (code >> 6)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            out.push_back(static_cast<char>(0xE0 | (code >> 12)));
            out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default: fail("unknown escape");
      }
    }
  }

  JsonValue parse_number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if ((c >= '0' && c <= '9') || c == '.' || c == 'e' || c == 'E' ||
          c == '+' || c == '-') {
        ++pos_;
      } else {
        break;
      }
    }
    if (pos_ == start) fail("expected a value");
    JsonValue v;
    v.type = JsonValue::Type::Number;
    const std::string_view token = text_.substr(start, pos_ - start);
    const auto res =
        std::from_chars(token.data(), token.data() + token.size(), v.number);
    if (res.ec != std::errc{} || res.ptr != token.data() + token.size()) {
      pos_ = start;
      fail("malformed number");
    }
    v.number_text = token;
    return v;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

JsonValue JsonValue::parse(std::string_view text) {
  return Parser(text).parse_document();
}

namespace {
template <typename Int>
Int exact_integer(const JsonValue& v) {
  if (!v.is_number()) throw std::runtime_error("JSON value is not a number");
  const std::string& text = v.number_text;
  Int out{};
  const auto [end, ec] =
      std::from_chars(text.data(), text.data() + text.size(), out);
  if (ec == std::errc::result_out_of_range) {
    throw std::runtime_error("JSON integer out of range: " + text);
  }
  if (ec != std::errc{} || end != text.data() + text.size()) {
    throw std::runtime_error("JSON number is not an integer: " + text);
  }
  return out;
}
}  // namespace

std::int64_t JsonValue::as_int() const {
  return exact_integer<std::int64_t>(*this);
}

std::uint64_t JsonValue::as_uint() const {
  return exact_integer<std::uint64_t>(*this);
}

const JsonValue* JsonValue::find(std::string_view name) const noexcept {
  if (type != Type::Object) return nullptr;
  for (const auto& [key, value] : object) {
    if (key == name) return &value;
  }
  return nullptr;
}

const JsonValue& JsonValue::at(std::string_view name) const {
  const JsonValue* v = find(name);
  if (v == nullptr) {
    throw std::runtime_error("JSON object has no member \"" +
                             std::string(name) + "\"");
  }
  return *v;
}

}  // namespace flexnet
