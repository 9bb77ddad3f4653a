// Unit tests for the dependency-free JSON writer/parser in src/report/json
// — the substrate of the bench-result schema, so escaping and round-trips
// must be exactly right.
#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "report/json.hpp"

namespace {

using emusim::report::Json;
using emusim::report::json_escape;
using emusim::report::json_number;

TEST(JsonEscape, PassesPlainTextThrough) {
  EXPECT_EQ(json_escape("hello world_42"), "hello world_42");
}

TEST(JsonEscape, EscapesQuotesAndBackslashes) {
  EXPECT_EQ(json_escape("say \"hi\\\""), "say \\\"hi\\\\\\\"");
}

TEST(JsonEscape, EscapesControlCharacters) {
  EXPECT_EQ(json_escape("a\tb\nc"), "a\\tb\\nc");
  EXPECT_EQ(json_escape(std::string("\x01", 1)), "\\u0001");
}

TEST(JsonNumber, IntegersPrintWithoutExponent) {
  EXPECT_EQ(json_number(0.0), "0");
  EXPECT_EQ(json_number(65536.0), "65536");
  EXPECT_EQ(json_number(-3.0), "-3");
}

TEST(JsonNumber, NonFiniteBecomesZero) {
  EXPECT_EQ(json_number(std::nan("")), "0");
  EXPECT_EQ(json_number(HUGE_VAL), "0");
}

TEST(JsonValue, ObjectPreservesInsertionOrder) {
  Json obj = Json::object();
  obj.set("zebra", Json::number(1));
  obj.set("alpha", Json::number(2));
  obj.set("mid", Json::string("x"));
  const std::string text = obj.dump(0);
  const auto z = text.find("zebra");
  const auto a = text.find("alpha");
  const auto m = text.find("mid");
  ASSERT_NE(z, std::string::npos);
  EXPECT_LT(z, a);
  EXPECT_LT(a, m);
}

TEST(JsonValue, SetReplacesExistingKeyInPlace) {
  Json obj = Json::object();
  obj.set("k", Json::number(1));
  obj.set("other", Json::number(2));
  obj.set("k", Json::number(99));
  EXPECT_EQ(obj.get_number("k"), 99.0);
  // Replacement must not duplicate the key.
  const std::string text = obj.dump(0);
  EXPECT_EQ(text.find("\"k\""), text.rfind("\"k\""));
}

TEST(JsonParse, RoundTripsNestedStructure) {
  Json root = Json::object();
  root.set("name", Json::string("bench \"x\"\n"));
  root.set("ok", Json::boolean(true));
  root.set("none", Json());  // default-constructed Json is null
  Json arr = Json::array();
  arr.push_back(Json::number(1.5));
  arr.push_back(Json::number(-2));
  Json inner = Json::object();
  inner.set("deep", Json::string("\t"));
  arr.push_back(std::move(inner));
  root.set("items", std::move(arr));

  Json back;
  std::string err;
  ASSERT_TRUE(Json::parse(root.dump(2), &back, &err)) << err;
  EXPECT_EQ(back.get_string("name"), "bench \"x\"\n");
  EXPECT_TRUE(back.get_bool("ok"));
  const Json* items = back.find("items");
  ASSERT_NE(items, nullptr);
  ASSERT_EQ(items->items().size(), 3u);
  EXPECT_DOUBLE_EQ(items->items()[0].as_number(), 1.5);
  EXPECT_EQ(items->items()[2].get_string("deep"), "\t");
}

TEST(JsonParse, AcceptsUnicodeEscapes) {
  Json v;
  std::string err;
  ASSERT_TRUE(Json::parse("{\"s\": \"a\\u0041\\u00e9\"}", &v, &err)) << err;
  EXPECT_EQ(v.get_string("s"), "aA\xc3\xa9");
}

TEST(JsonParse, RejectsTrailingGarbage) {
  Json v;
  std::string err;
  EXPECT_FALSE(Json::parse("{} trailing", &v, &err));
  EXPECT_FALSE(err.empty());
}

TEST(JsonParse, RejectsMalformedInput) {
  Json v;
  std::string err;
  EXPECT_FALSE(Json::parse("{\"a\": }", &v, &err));
  EXPECT_FALSE(Json::parse("[1, 2", &v, &err));
  EXPECT_FALSE(Json::parse("", &v, &err));
  EXPECT_FALSE(Json::parse("{\"a\" 1}", &v, &err));
}

TEST(JsonParse, NumbersWithExponents) {
  Json v;
  std::string err;
  ASSERT_TRUE(Json::parse("[1e3, -2.5e-2, 0.125]", &v, &err)) << err;
  EXPECT_DOUBLE_EQ(v.items()[0].as_number(), 1000.0);
  EXPECT_DOUBLE_EQ(v.items()[1].as_number(), -0.025);
  EXPECT_DOUBLE_EQ(v.items()[2].as_number(), 0.125);
}

// Every input here once parsed (or crashed the parser) and would let a
// result file silently disable a gate: a NaN y compares false against every
// bound, a duplicate key hides one of its values, deep nesting overflowed
// the stack.
TEST(JsonParse, RejectsMalformedCorpus) {
  const struct {
    const char* text;
    const char* why;
  } corpus[] = {
      {"{\"a\": [1, 2", "expected ',' or ']'"},
      {"{\"a\": [1, ", "unexpected end of input"},
      {"{\"a\"", "expected ':'"},
      {"\"abc", "unterminated string"},
      {"tru", "bad literal"},
      {"[NaN]", "expected value"},
      {"[Infinity]", "expected value"},
      {"[-Infinity]", "bad number"},
      {"[0x10]", "expected ',' or ']'"},
      {"[+1]", "expected value"},
      {"[1e400]", "number out of range"},
      {"[-1e400]", "number out of range"},
      {"[01]", "expected ',' or ']'"},
      {"[1.]", "bad number fraction"},
      {"[.5]", "expected value"},
      {"[1e]", "bad number exponent"},
      {"-", "bad number"},
      {"{\"y\": 1, \"y\": 2}", "duplicate key 'y'"},
  };
  for (const auto& c : corpus) {
    Json v;
    std::string err;
    EXPECT_FALSE(Json::parse(c.text, &v, &err)) << c.text;
    EXPECT_NE(err.find(c.why), std::string::npos)
        << c.text << " -> " << err << " (want " << c.why << ")";
  }

  // 200,000 nested arrays: an error, not a stack overflow.
  Json v;
  std::string err;
  EXPECT_FALSE(Json::parse(std::string(200000, '['), &v, &err));
  EXPECT_NE(err.find("nesting deeper than 256"), std::string::npos) << err;
  const std::string deepest = std::string(256, '[') + std::string(256, ']');
  EXPECT_TRUE(Json::parse(deepest, &v, &err)) << err;
  EXPECT_FALSE(Json::parse("[" + deepest + "]", &v, &err));

  // Strict is not narrow: a huge but finite integer and the grammar's own
  // corner forms still parse.
  ASSERT_TRUE(Json::parse("[123456789012345678901234567890, -0, 1E+2]", &v,
                          &err))
      << err;
  EXPECT_DOUBLE_EQ(v.items()[0].as_number(), 1.2345678901234568e29);
  EXPECT_EQ(v.items()[1].as_number(), 0.0);
  EXPECT_DOUBLE_EQ(v.items()[2].as_number(), 100.0);
}

TEST(JsonValue, GetWithDefaults) {
  Json obj = Json::object();
  obj.set("present", Json::number(7));
  EXPECT_EQ(obj.get_number("present", -1), 7.0);
  EXPECT_EQ(obj.get_number("absent", -1), -1.0);
  EXPECT_EQ(obj.get_string("absent", "dflt"), "dflt");
  EXPECT_TRUE(obj.get_bool("absent", true));
}

}  // namespace
