#include "util/json.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <string_view>

#include "util/rng.hpp"

namespace llmq::util {
namespace {

TEST(Json, EscapeSpecials) {
  EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json_escape("back\\slash"), "back\\\\slash");
  EXPECT_EQ(json_escape("line\nbreak"), "line\\nbreak");
  EXPECT_EQ(json_escape("tab\there"), "tab\\there");
  EXPECT_EQ(json_escape(std::string(1, '\x01')), "\\u0001");
}

// The original escaper, kept as the reference for the in-place one.
std::string reference_json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

TEST(Json, EscapeMatchesReferenceOnRandomStrings) {
  // Every control byte, both escaped specials, and bytes >= 0x80, in
  // strings long enough that the escaper's 8-byte skip meets each of them
  // at every offset within a word.
  std::string specials = "\"\\";
  for (int c = 0; c < 0x20; ++c) specials += static_cast<char>(c);
  EXPECT_EQ(json_escape(specials), reference_json_escape(specials));
  Rng rng(0x15c);
  for (int trial = 0; trial < 500; ++trial) {
    std::string s;
    for (std::size_t n = rng.next_below(40); n > 0; --n) {
      switch (rng.next_below(3)) {
        case 0: s += specials[rng.next_below(specials.size())]; break;
        case 1: s += static_cast<char>(rng.next_below(256)); break;
        default: s += static_cast<char>('a' + rng.next_below(26));
      }
    }
    const std::string want = reference_json_escape(s);
    EXPECT_EQ(json_escape(s), want);
    JsonWriter w;
    w.begin_object().kv(s, s).end_object();
    EXPECT_EQ(w.str(), "{\"" + want + "\":\"" + want + "\"}");
  }
}

TEST(Json, EmptyObject) {
  JsonWriter w;
  w.begin_object().end_object();
  EXPECT_EQ(w.str(), "{}");
}

TEST(Json, ObjectPreservesInsertionOrder) {
  JsonWriter w;
  w.begin_object().kv("zeta", "1").kv("alpha", "2").kv("mid", "3").end_object();
  EXPECT_EQ(w.str(), R"({"zeta":"1","alpha":"2","mid":"3"})");
}

TEST(Json, NestedStructures) {
  JsonWriter w;
  w.begin_object()
      .key("rows")
      .begin_array()
      .begin_object()
      .kv("a", "x")
      .end_object()
      .value(std::int64_t{42})
      .end_array()
      .key("flag")
      .value(true)
      .key("nothing")
      .null()
      .end_object();
  EXPECT_EQ(w.str(), R"({"rows":[{"a":"x"},42],"flag":true,"nothing":null})");
}

TEST(Json, NumbersAndBooleans) {
  JsonWriter w;
  w.begin_array().value(std::int64_t{-7}).value(false).value(2.5).end_array();
  EXPECT_EQ(w.str(), "[-7,false,2.5]");
}

TEST(Json, TakeMovesBuffer) {
  JsonWriter w;
  w.begin_array().end_array();
  EXPECT_EQ(w.take(), "[]");
}

TEST(JsonParse, Scalars) {
  EXPECT_TRUE(json_parse("null")->is_null());
  EXPECT_TRUE(json_parse("true")->as_bool());
  EXPECT_FALSE(json_parse("false")->as_bool());
  EXPECT_DOUBLE_EQ(json_parse("-7")->as_number(), -7.0);
  EXPECT_DOUBLE_EQ(json_parse("2.5e2")->as_number(), 250.0);
  EXPECT_EQ(json_parse("\"hi\\n\\u0041\"")->as_string(), "hi\nA");
}

TEST(JsonParse, StructuresAndLookup) {
  const auto v = json_parse(
      R"({"bench":"x","scale":0.1,"sections":{"a":[{"k":1},{"k":2}]}})");
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->find("bench")->as_string(), "x");
  EXPECT_DOUBLE_EQ(v->find("scale")->as_number(), 0.1);
  const JsonValue* a = v->find("sections")->find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_EQ(a->as_array().size(), 2u);
  EXPECT_DOUBLE_EQ(a->as_array()[1].find("k")->as_number(), 2.0);
  EXPECT_EQ(v->find("absent"), nullptr);
  // Member order preserved (the writer's insertion order is load-bearing
  // for prompts; the reader keeps it for symmetry).
  EXPECT_EQ(v->as_object()[0].first, "bench");
  EXPECT_EQ(v->as_object()[2].first, "sections");
}

TEST(JsonParse, RoundTripsWriterOutput) {
  JsonWriter w;
  w.begin_object();
  w.key("s").value("line\nbreak \"quoted\" \\ tab\t\x01");
  w.key("n").value(-0.125);
  w.key("arr").begin_array().value(true).null().end_array();
  w.end_object();
  const auto v = json_parse(w.str());
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->find("s")->as_string(), "line\nbreak \"quoted\" \\ tab\t\x01");
  EXPECT_DOUBLE_EQ(v->find("n")->as_number(), -0.125);
  ASSERT_EQ(v->find("arr")->as_array().size(), 2u);
  EXPECT_TRUE(v->find("arr")->as_array()[1].is_null());
}

TEST(JsonParse, RejectsMalformedInput) {
  EXPECT_FALSE(json_parse("").has_value());
  EXPECT_FALSE(json_parse("{").has_value());
  EXPECT_FALSE(json_parse("[1,]").has_value());
  EXPECT_FALSE(json_parse("{\"a\" 1}").has_value());
  EXPECT_FALSE(json_parse("\"unterminated").has_value());
  EXPECT_FALSE(json_parse("12x").has_value());
  EXPECT_FALSE(json_parse("1 2").has_value());
  EXPECT_FALSE(json_parse("tru").has_value());
  EXPECT_FALSE(json_parse("\"bad \\q escape\"").has_value());
}

TEST(JsonParse, TypeMismatchThrows) {
  const auto v = json_parse("[1]");
  EXPECT_THROW(v->as_object(), std::logic_error);
  EXPECT_THROW(v->as_array()[0].as_string(), std::logic_error);
}

}  // namespace
}  // namespace llmq::util
