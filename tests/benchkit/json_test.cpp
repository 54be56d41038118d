// Benchkit JSON writer/parser: round trips, escaping, error reporting.
#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>
#include <string>

#include "benchkit/json.hpp"

namespace {

using csm::benchkit::Json;

TEST(JsonDump, ScalarsAndCompactContainers) {
  EXPECT_EQ(Json().dump(0), "null");
  EXPECT_EQ(Json(true).dump(0), "true");
  EXPECT_EQ(Json(false).dump(0), "false");
  EXPECT_EQ(Json(42).dump(0), "42");
  EXPECT_EQ(Json(2.5).dump(0), "2.5");
  EXPECT_EQ(Json("hi").dump(0), "\"hi\"");
  EXPECT_EQ(Json::array().dump(0), "[]");
  EXPECT_EQ(Json::object().dump(0), "{}");

  Json obj = Json::object();
  obj.set("a", 1).set("b", Json::array().push(1).push("x"));
  EXPECT_EQ(obj.dump(0), "{\"a\":1,\"b\":[1,\"x\"]}");
}

TEST(JsonDump, EscapesControlCharactersAndQuotes) {
  EXPECT_EQ(Json("a\"b\\c\nd\te").dump(0), "\"a\\\"b\\\\c\\nd\\te\"");
  EXPECT_EQ(Json(std::string(1, '\x01')).dump(0), "\"\\u0001\"");
}

TEST(JsonDump, ObjectsPreserveInsertionOrder) {
  Json obj = Json::object();
  obj.set("zebra", 1).set("alpha", 2).set("mid", 3);
  EXPECT_EQ(obj.dump(0), "{\"zebra\":1,\"alpha\":2,\"mid\":3}");
  obj.set("alpha", 9);  // Overwrite keeps the original position.
  EXPECT_EQ(obj.dump(0), "{\"zebra\":1,\"alpha\":9,\"mid\":3}");
}

TEST(JsonParse, RoundTripsDumpOutput) {
  Json obj = Json::object();
  obj.set("name", "bench \"x\"\n");
  obj.set("value", -12.75);
  obj.set("flags", Json::array().push(true).push(Json()).push(1e-3));
  Json nested = Json::object();
  nested.set("k", 7);
  obj.set("nested", std::move(nested));

  for (const int indent : {0, 2}) {
    const Json parsed = Json::parse(obj.dump(indent));
    EXPECT_EQ(parsed.at("name").str(), "bench \"x\"\n");
    EXPECT_DOUBLE_EQ(parsed.at("value").number(), -12.75);
    ASSERT_EQ(parsed.at("flags").size(), 3u);
    EXPECT_TRUE(parsed.at("flags")[0].boolean());
    EXPECT_TRUE(parsed.at("flags")[1].is_null());
    EXPECT_DOUBLE_EQ(parsed.at("flags")[2].number(), 1e-3);
    EXPECT_DOUBLE_EQ(parsed.at("nested").at("k").number(), 7.0);
  }
}

TEST(JsonParse, RejectsMalformedInput) {
  EXPECT_THROW(Json::parse(""), std::runtime_error);
  EXPECT_THROW(Json::parse("{"), std::runtime_error);
  EXPECT_THROW(Json::parse("{\"a\":}"), std::runtime_error);
  EXPECT_THROW(Json::parse("[1,]"), std::runtime_error);
  EXPECT_THROW(Json::parse("tru"), std::runtime_error);
  EXPECT_THROW(Json::parse("\"unterminated"), std::runtime_error);
  EXPECT_THROW(Json::parse("1 2"), std::runtime_error);  // Trailing garbage.
  EXPECT_THROW(Json::parse("{} x"), std::runtime_error);
}

TEST(JsonParse, DeepNestingIsRejectedNotOverflowed) {
  // fuzz/regressions/json/deep-nesting.json: 100k unmatched '[' used to
  // recurse once per level and run the parser off the stack. The parser now
  // rejects documents past its 192-level depth cap with a normal parse
  // error instead.
  EXPECT_THROW(Json::parse(std::string(100000, '[')), std::runtime_error);

  // The boundary: 191 well-formed levels parse, 192 are rejected.
  const auto nested = [](std::size_t levels) {
    return std::string(levels, '[') + "0" + std::string(levels, ']');
  };
  EXPECT_NO_THROW((void)Json::parse(nested(191)));
  EXPECT_THROW((void)Json::parse(nested(192)), std::runtime_error);
}

TEST(JsonParse, ErrorsCarryTheByteOffset) {
  try {
    Json::parse("[1, oops]");
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("offset"), std::string::npos);
  }
}

TEST(JsonAccessors, ThrowOnMismatchesAndMissingKeys) {
  const Json obj = Json::parse("{\"a\": 1}");
  EXPECT_THROW(obj.at("missing"), std::runtime_error);
  EXPECT_EQ(obj.find("missing"), nullptr);
  EXPECT_THROW(obj.at("a").str(), std::runtime_error);
  EXPECT_THROW(obj[0], std::runtime_error);
  const Json arr = Json::parse("[1]");
  EXPECT_THROW(arr[5], std::runtime_error);
  EXPECT_THROW(arr.at("a"), std::runtime_error);
}

TEST(JsonAccessors, TypePredicatesFollowTheValue) {
  const Json doc =
      Json::parse("{\"n\": null, \"b\": false, \"x\": 1.5, \"s\": \"v\","
                  " \"a\": [1, 2], \"o\": {\"k\": 0}}");
  ASSERT_TRUE(doc.is_object());
  EXPECT_EQ(doc.type(), Json::Type::kObject);
  EXPECT_EQ(doc.at("n").type(), Json::Type::kNull);
  EXPECT_EQ(doc.at("b").type(), Json::Type::kBool);
  EXPECT_EQ(doc.at("x").type(), Json::Type::kNumber);
  EXPECT_EQ(doc.at("s").type(), Json::Type::kString);
  EXPECT_EQ(doc.at("a").type(), Json::Type::kArray);
  EXPECT_EQ(doc.at("o").type(), Json::Type::kObject);
  EXPECT_TRUE(doc.at("x").is_number());
  EXPECT_FALSE(doc.at("s").is_number());
  EXPECT_TRUE(doc.at("s").is_string());
  EXPECT_TRUE(doc.at("a").is_array());
  EXPECT_FALSE(doc.at("a").is_object());
  EXPECT_TRUE(doc.at("o").is_object());
  EXPECT_TRUE(doc.at("n").is_null());
  // size() counts elements and members, and is 0 for every scalar.
  EXPECT_EQ(doc.size(), 6u);
  EXPECT_EQ(doc.at("a").size(), 2u);
  EXPECT_EQ(doc.at("o").size(), 1u);
  EXPECT_EQ(doc.at("x").size(), 0u);
  EXPECT_EQ(doc.at("s").size(), 0u);
  EXPECT_THROW(doc.at("b").number(), std::runtime_error);
  EXPECT_THROW(doc.at("x").boolean(), std::runtime_error);
}

TEST(JsonBuild, NullBecomesAContainerOnFirstPushOrSet) {
  Json arr;
  arr.push(1).push("two");
  ASSERT_TRUE(arr.is_array());
  ASSERT_EQ(arr.elements().size(), 2u);
  EXPECT_DOUBLE_EQ(arr.elements()[0].number(), 1.0);
  EXPECT_EQ(arr.elements()[1].str(), "two");

  Json obj;
  obj.set("b", 2).set("a", 1);
  ASSERT_TRUE(obj.is_object());
  ASSERT_EQ(obj.members().size(), 2u);
  EXPECT_EQ(obj.members()[0].first, "b");  // Insertion order, not sorted.
  EXPECT_EQ(obj.members()[1].first, "a");
  EXPECT_DOUBLE_EQ(obj.members()[1].second.number(), 1.0);
  ASSERT_NE(obj.find("a"), nullptr);
  EXPECT_EQ(Json(3).find("a"), nullptr);  // Not an object.
}

TEST(JsonNumbers, NonFiniteValuesSerialiseAsNull) {
  EXPECT_EQ(Json(std::numeric_limits<double>::infinity()).dump(0), "null");
  EXPECT_EQ(Json(std::numeric_limits<double>::quiet_NaN()).dump(0), "null");
}

}  // namespace
