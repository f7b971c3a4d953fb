#include "util/json.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <sstream>
#include <stdexcept>

namespace flexnet {
namespace {

std::string write_sample(int indent) {
  std::ostringstream out;
  JsonWriter json(out, indent);
  json.begin_object();
  json.field("name", "flex\"net\n");
  json.field("count", std::int64_t{42});
  json.field("ratio", 0.25);
  json.field("on", true);
  json.key("missing").null();
  json.key("list").begin_array();
  json.value(1).value(2).value(3);
  json.end_array();
  json.key("nested").begin_object();
  json.field("k", 4);
  json.end_object();
  json.end_object();
  return out.str();
}

TEST(JsonWriter, CompactOutputIsCanonical) {
  EXPECT_EQ(write_sample(0),
            "{\"name\":\"flex\\\"net\\n\",\"count\":42,\"ratio\":0.25,"
            "\"on\":true,\"missing\":null,\"list\":[1,2,3],"
            "\"nested\":{\"k\":4}}");
}

TEST(JsonWriter, IndentedOutputParsesBack) {
  const JsonValue v = JsonValue::parse(write_sample(2));
  ASSERT_TRUE(v.is_object());
  EXPECT_EQ(v.at("name").string, "flex\"net\n");
  EXPECT_EQ(v.at("count").as_int(), 42);
  EXPECT_DOUBLE_EQ(v.at("ratio").number, 0.25);
  EXPECT_TRUE(v.at("on").boolean);
  EXPECT_EQ(v.at("missing").type, JsonValue::Type::Null);
  ASSERT_EQ(v.at("list").array.size(), 3u);
  EXPECT_EQ(v.at("list").array[2].as_int(), 3);
  EXPECT_EQ(v.at("nested").at("k").as_int(), 4);
}

TEST(JsonWriter, NonFiniteDoublesBecomeNull) {
  std::ostringstream out;
  JsonWriter json(out, 0);
  json.begin_array();
  json.value(std::numeric_limits<double>::quiet_NaN());
  json.value(std::numeric_limits<double>::infinity());
  json.value(1.5);
  json.end_array();
  EXPECT_EQ(out.str(), "[null,null,1.5]");
}

TEST(JsonWriter, DoublesUseShortestRoundTrip) {
  std::ostringstream out;
  JsonWriter json(out, 0);
  json.begin_array();
  json.value(0.1);
  json.value(1.0 / 3.0);
  json.end_array();
  const JsonValue v = JsonValue::parse(out.str());
  EXPECT_DOUBLE_EQ(v.array[0].number, 0.1);
  EXPECT_DOUBLE_EQ(v.array[1].number, 1.0 / 3.0);
}

TEST(JsonWriter, MisuseThrows) {
  std::ostringstream out;
  JsonWriter json(out, 0);
  json.begin_object();
  EXPECT_THROW(json.value(1), std::logic_error);   // value without key
  EXPECT_THROW(json.end_array(), std::logic_error);  // mismatched close
}

TEST(JsonValue, ObjectOrderIsPreserved) {
  const JsonValue v = JsonValue::parse(R"({"z":1,"a":2,"m":3})");
  ASSERT_EQ(v.object.size(), 3u);
  EXPECT_EQ(v.object[0].first, "z");
  EXPECT_EQ(v.object[1].first, "a");
  EXPECT_EQ(v.object[2].first, "m");
}

TEST(JsonValue, ParsesEscapesAndUnicode) {
  const JsonValue v = JsonValue::parse(R"(["\t\\Aé"])");
  EXPECT_EQ(v.array[0].string, "\t\\A\xc3\xa9");
}

TEST(JsonValue, ParsesNumbers) {
  const JsonValue v = JsonValue::parse("[-12, 3.5e2, 0, 1e-3]");
  EXPECT_EQ(v.array[0].as_int(), -12);
  EXPECT_DOUBLE_EQ(v.array[1].number, 350.0);
  EXPECT_EQ(v.array[2].as_int(), 0);
  EXPECT_DOUBLE_EQ(v.array[3].number, 1e-3);
}

TEST(JsonValue, IntegersReadBackExactly) {
  // Point seeds are full 64-bit splitmix64 values: a double holds 53 bits,
  // and casting one >= 2^63 to int64 is undefined, so telemetry_dump once
  // printed this seed as 9223372036854775808.
  const std::uint64_t seed = 10905525725756348110ULL;
  std::ostringstream out;
  JsonWriter json(out, 0);
  json.begin_object();
  json.field("seed", seed);
  json.field("low", std::numeric_limits<std::int64_t>::min());
  json.end_object();
  const JsonValue doc = JsonValue::parse(out.str());
  EXPECT_EQ(doc.at("seed").as_uint(), seed);
  EXPECT_EQ(doc.at("low").as_int(), std::numeric_limits<std::int64_t>::min());
  EXPECT_EQ(JsonValue::parse("-7").as_int(), -7);
  EXPECT_EQ(JsonValue::parse("18446744073709551615").as_uint(),
            std::numeric_limits<std::uint64_t>::max());
}

TEST(JsonValue, NonIntegersAndOverflowThrowWhenReadAsIntegers) {
  EXPECT_THROW((void)JsonValue::parse("1e300").as_int(), std::runtime_error);
  EXPECT_THROW((void)JsonValue::parse("1e300").as_uint(), std::runtime_error);
  EXPECT_THROW((void)JsonValue::parse("2.5").as_int(), std::runtime_error);
  EXPECT_THROW((void)JsonValue::parse("9223372036854775808").as_int(),
               std::runtime_error);
  EXPECT_THROW((void)JsonValue::parse("18446744073709551616").as_uint(),
               std::runtime_error);
  EXPECT_THROW((void)JsonValue::parse("-1").as_uint(), std::runtime_error);
  EXPECT_THROW((void)JsonValue::parse("\"12\"").as_int(), std::runtime_error);
}

TEST(JsonValue, FindAndAt) {
  const JsonValue v = JsonValue::parse(R"({"a":1})");
  EXPECT_NE(v.find("a"), nullptr);
  EXPECT_EQ(v.find("b"), nullptr);
  EXPECT_THROW((void)v.at("b"), std::runtime_error);
}

TEST(JsonValue, RejectsMalformedInput) {
  EXPECT_THROW((void)JsonValue::parse("{"), std::runtime_error);
  EXPECT_THROW((void)JsonValue::parse("[1,]"), std::runtime_error);
  EXPECT_THROW((void)JsonValue::parse("tru"), std::runtime_error);
  EXPECT_THROW((void)JsonValue::parse("{} extra"), std::runtime_error);
  EXPECT_THROW((void)JsonValue::parse(R"({"a" 1})"), std::runtime_error);
  EXPECT_THROW((void)JsonValue::parse(""), std::runtime_error);
}

}  // namespace
}  // namespace flexnet
