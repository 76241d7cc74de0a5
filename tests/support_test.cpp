// Tests for the support substrate: checked arithmetic, JSON round-trips,
// string utilities, and the deterministic RNG.

#include <gtest/gtest.h>

#include <cstdio>
#include <vector>

#include "support/arith.h"
#include "support/json.h"
#include "support/rng.h"
#include "support/str.h"

namespace polypart {
namespace {

TEST(Arith, CheckedOpsDetectOverflow) {
  EXPECT_EQ(checkedAdd(2, 3), 5);
  EXPECT_EQ(checkedMul(-4, 5), -20);
  EXPECT_THROW(checkedAdd(INT64_MAX, 1), OverflowError);
  EXPECT_THROW(checkedSub(INT64_MIN, 1), OverflowError);
  EXPECT_THROW(checkedMul(INT64_MAX / 2 + 1, 2), OverflowError);
  EXPECT_THROW(checkedNeg(INT64_MIN), OverflowError);
  EXPECT_EQ(checkedNeg(INT64_MAX), -INT64_MAX);
}

TEST(Arith, GcdLcm) {
  EXPECT_EQ(gcd(12, 18), 6);
  EXPECT_EQ(gcd(-12, 18), 6);
  EXPECT_EQ(gcd(0, 7), 7);
  EXPECT_EQ(gcd(0, 0), 0);
  EXPECT_EQ(lcm(4, 6), 12);
  EXPECT_EQ(lcm(0, 5), 0);
}

TEST(Arith, FloorCeilDivMod) {
  EXPECT_EQ(floorDiv(7, 2), 3);
  EXPECT_EQ(floorDiv(-7, 2), -4);
  EXPECT_EQ(floorDiv(7, -2), -4);
  EXPECT_EQ(ceilDiv(7, 2), 4);
  EXPECT_EQ(ceilDiv(-7, 2), -3);
  EXPECT_EQ(floorMod(7, 3), 1);
  EXPECT_EQ(floorMod(-7, 3), 2);
  EXPECT_EQ(floorMod(-6, 3), 0);
}

TEST(Json, ScalarRoundTrips) {
  EXPECT_EQ(json::Value::parse("42").asInt(), 42);
  EXPECT_EQ(json::Value::parse("-17").asInt(), -17);
  EXPECT_DOUBLE_EQ(json::Value::parse("2.5e3").asDouble(), 2500.0);
  EXPECT_TRUE(json::Value::parse("true").asBool());
  EXPECT_FALSE(json::Value::parse("false").asBool());
  EXPECT_TRUE(json::Value::parse("null").isNull());
  EXPECT_EQ(json::Value::parse("\"a\\nb\\\"c\"").asString(), "a\nb\"c");
}

TEST(Json, NestedStructureRoundTrip) {
  json::Value v = json::Value::object();
  v["name"] = "polypart";
  v["version"] = 1;
  json::Value arr = json::Value::array();
  arr.push(1);
  arr.push(json::Value::object());
  arr.asArray()[1]["nested"] = true;
  v["items"] = std::move(arr);
  std::string compact = v.dump();
  std::string pretty = v.dump(2);
  EXPECT_EQ(json::Value::parse(compact).dump(), compact);
  EXPECT_EQ(json::Value::parse(pretty).dump(), compact);
  EXPECT_NE(pretty.find('\n'), std::string::npos);
}

TEST(Json, ObjectPreservesInsertionOrder) {
  json::Value v = json::Value::object();
  v["zebra"] = 1;
  v["apple"] = 2;
  std::string s = v.dump();
  EXPECT_LT(s.find("zebra"), s.find("apple"));
}

TEST(Json, ParseErrors) {
  EXPECT_THROW(json::Value::parse(""), ModelFormatError);
  EXPECT_THROW(json::Value::parse("{"), ModelFormatError);
  EXPECT_THROW(json::Value::parse("[1,]"), ModelFormatError);
  EXPECT_THROW(json::Value::parse("tru"), ModelFormatError);
  EXPECT_THROW(json::Value::parse("\"unterminated"), ModelFormatError);
  EXPECT_THROW(json::Value::parse("1 2"), ModelFormatError);
}

TEST(Json, TypeErrorsThrow) {
  json::Value v = json::Value::parse("{\"a\": 1}");
  EXPECT_THROW(v.at("missing"), ModelFormatError);
  EXPECT_THROW(v.at("a").asString(), ModelFormatError);
  EXPECT_THROW(v.asArray(), ModelFormatError);
}

TEST(Json, UnicodeEscapes) {
  EXPECT_EQ(json::Value::parse("\"\\u0041\"").asString(), "A");
  // Two-byte and three-byte UTF-8 encodings.
  EXPECT_EQ(json::Value::parse("\"\\u00e9\"").asString(), "\xc3\xa9");
  EXPECT_EQ(json::Value::parse("\"\\u20ac\"").asString(), "\xe2\x82\xac");
}

TEST(Str, FormatAndJoin) {
  EXPECT_EQ(format("%d-%s", 7, "x"), "7-x");
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(join({}, ","), "");
  EXPECT_TRUE(startsWith("hello", "he"));
  EXPECT_FALSE(startsWith("he", "hello"));
  EXPECT_EQ(trim("  x y\t\n"), "x y");
  EXPECT_EQ(trim("   "), "");
}

TEST(Str, FileRoundTrip) {
  std::string path = ::testing::TempDir() + "polypart_str_test.txt";
  writeFile(path, "contents\nline2");
  EXPECT_EQ(readFile(path), "contents\nline2");
  EXPECT_THROW(readFile("/nonexistent/dir/file"), Error);
  std::remove(path.c_str());
}

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(123), b(123), c(124);
  bool anyDifferent = false;
  for (int i = 0; i < 100; ++i) {
    auto va = a.next();
    EXPECT_EQ(va, b.next());
    if (va != c.next()) anyDifferent = true;
  }
  EXPECT_TRUE(anyDifferent);
}

TEST(Rng, RangeBoundsRespected) {
  Rng rng(5);
  for (int i = 0; i < 10000; ++i) {
    auto v = rng.range(-3, 7);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 7);
  }
  for (int i = 0; i < 1000; ++i) {
    double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

}  // namespace
}  // namespace polypart
