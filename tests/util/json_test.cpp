// The wire-format parser: strictness and error positions are part of the
// contract (docs/WIRE_FORMAT.md) — a malformed shard file must fail with
// a message naming what broke, never parse into something half-valid.
#include "util/json.hpp"

#include <gtest/gtest.h>

#include "util/strings.hpp"

namespace ep {
namespace {

TEST(Json, ParsesScalars) {
  EXPECT_TRUE(json_parse("null").is_null());
  EXPECT_TRUE(json_parse("true").as_bool());
  EXPECT_FALSE(json_parse("false").as_bool());
  EXPECT_DOUBLE_EQ(json_parse("42").as_number(), 42.0);
  EXPECT_EQ(json_parse("42").as_int(), 42);
  EXPECT_EQ(json_parse("-7").as_int(), -7);
  EXPECT_DOUBLE_EQ(json_parse("2.5e2").as_number(), 250.0);
  EXPECT_EQ(json_parse("\"hi\"").as_string(), "hi");
}

TEST(Json, ParsesContainersInDocumentOrder) {
  JsonValue v = json_parse(R"({"b": [1, 2, {"x": true}], "a": null})");
  ASSERT_TRUE(v.is_object());
  ASSERT_EQ(v.members().size(), 2u);
  EXPECT_EQ(v.members()[0].first, "b");  // document order, not sorted
  EXPECT_EQ(v.members()[1].first, "a");
  const auto& arr = v.at("b").items();
  ASSERT_EQ(arr.size(), 3u);
  EXPECT_EQ(arr[1].as_int(), 2);
  EXPECT_TRUE(arr[2].at("x").as_bool());
  EXPECT_TRUE(v.at("a").is_null());
  EXPECT_EQ(v.find("zzz"), nullptr);
}

TEST(Json, UnescapesStrings) {
  EXPECT_EQ(json_parse(R"("a\"b\\c\/d")").as_string(), "a\"b\\c/d");
  EXPECT_EQ(json_parse(R"("\n\t\r\b\f")").as_string(), "\n\t\r\b\f");
  EXPECT_EQ(json_parse(R"("\u0041")").as_string(), "A");
  EXPECT_EQ(json_parse(R"("\u00e9")").as_string(), "\xc3\xa9");       // é
  EXPECT_EQ(json_parse(R"("\u20ac")").as_string(), "\xe2\x82\xac");   // €
  EXPECT_EQ(json_parse(R"("\ud83d\ude00")").as_string(),
            "\xf0\x9f\x98\x80");  // surrogate pair (emoji)
}

TEST(Json, RoundTripsJsonQuoteOutput) {
  // The serializers emit through json_quote; whatever it produces, the
  // parser must read back verbatim.
  std::string nasty = "path \"x\"\\with\nnewline\ttab\x01zero";
  EXPECT_EQ(json_parse(json_quote(nasty)).as_string(), nasty);
}

TEST(Json, RejectsMalformedInput) {
  EXPECT_THROW(json_parse(""), JsonError);
  EXPECT_THROW(json_parse("{"), JsonError);
  EXPECT_THROW(json_parse("[1, 2"), JsonError);
  EXPECT_THROW(json_parse("{\"a\": }"), JsonError);
  EXPECT_THROW(json_parse("\"unterminated"), JsonError);
  EXPECT_THROW(json_parse("\"bad \\x escape\""), JsonError);
  EXPECT_THROW(json_parse("tru"), JsonError);
  EXPECT_THROW(json_parse("01"), JsonError);  // leading zero -> garbage
  EXPECT_THROW(json_parse("1 2"), JsonError);
  EXPECT_THROW(json_parse("{\"a\": 1} extra"), JsonError);
  EXPECT_THROW(json_parse(R"("\ud800 unpaired")"), JsonError);
}

TEST(Json, RejectsBrokenSurrogatePairs) {
  // The three half-pair shapes, each with its own diagnostic and a
  // line/column position (the ISSUE's surrogate-decoding audit).
  auto error_of = [](const char* text) -> JsonError {
    try {
      json_parse(text);
    } catch (const JsonError& e) {
      return e;
    }
    ADD_FAILURE() << "expected JsonError for " << text;
    return JsonError("none");
  };

  // 1. An unpaired high surrogate at end-of-string.
  JsonError e = error_of(R"("\uD834")");
  EXPECT_TRUE(contains(e.what(), "unpaired high surrogate"));
  EXPECT_EQ(e.line(), 1u);
  EXPECT_EQ(e.column(), 8u);  // just past the six escape characters

  // ... including one truncated at end of input.
  EXPECT_TRUE(contains(error_of("\"\\uD834").what(),
                       "unpaired high surrogate"));

  // 2. A high surrogate followed by a non-\u escape or by literal text.
  EXPECT_TRUE(contains(error_of(R"("\uD834\n")").what(),
                       "unpaired high surrogate"));
  EXPECT_TRUE(contains(error_of(R"("\uD834abc")").what(),
                       "unpaired high surrogate"));
  // An escaped backslash is NOT the \u of a low half, even though the
  // bytes start with a backslash and a 'u' follows.
  EXPECT_TRUE(contains(error_of(R"("\uD834\\u0041")").what(),
                       "unpaired high surrogate"));

  // 3. A lone low surrogate.
  e = error_of("{\n  \"k\": \"\\uDC00\"\n}");
  EXPECT_TRUE(contains(e.what(), "lone low surrogate"));
  EXPECT_EQ(e.line(), 2u);

  // A high surrogate paired with another high one is still wrong.
  EXPECT_TRUE(contains(error_of(R"("\uD834\uD834")").what(),
                       "invalid low surrogate"));

  // Boundary sanity: the planes around the surrogate range stay legal.
  EXPECT_EQ(json_parse(R"("\uD7FF")").as_string(), "\xed\x9f\xbf");
  EXPECT_EQ(json_parse(R"("\uE000")").as_string(), "\xee\x80\x80");
}

TEST(Json, RejectsDuplicateKeys) {
  try {
    json_parse(R"({"id": 1, "id": 2})");
    FAIL() << "expected JsonError";
  } catch (const JsonError& e) {
    EXPECT_TRUE(contains(e.what(), "duplicate object key 'id'"));
  }
}

TEST(Json, ErrorsCarryLineAndColumn) {
  try {
    json_parse("{\n  \"a\": 1,\n  \"b\": oops\n}");
    FAIL() << "expected JsonError";
  } catch (const JsonError& e) {
    EXPECT_EQ(e.line(), 3u);
    EXPECT_TRUE(contains(e.what(), "line 3"));
  }
}

TEST(Json, RejectsDeepNesting) {
  std::string deep(200, '[');
  deep += std::string(200, ']');
  EXPECT_THROW(json_parse(deep), JsonError);
}

TEST(Json, TypedAccessorsNameTheMismatch) {
  try {
    (void)json_parse("[1]").at("key");
    FAIL() << "expected JsonError";
  } catch (const JsonError& e) {
    EXPECT_TRUE(contains(e.what(), "key"));
    EXPECT_TRUE(contains(e.what(), "array"));
  }
  try {
    (void)json_parse("{\"n\": 1.5}").at("n").as_int();
    FAIL() << "expected JsonError";
  } catch (const JsonError& e) {
    EXPECT_TRUE(contains(e.what(), "integer"));
  }
}

TEST(Json, AsIntRejectsValuesBeyondLongLong) {
  // The double -> long long cast would be UB out of range; wire files
  // are untrusted, so this must be a clean error.
  EXPECT_THROW((void)json_parse("1e19").as_int(), JsonError);
  EXPECT_THROW((void)json_parse("-1e19").as_int(), JsonError);
  EXPECT_EQ(json_parse("9007199254740992").as_int(), 9007199254740992LL);
}

TEST(Json, IntegralLiteralsAreExactPastADoublesMantissa) {
  // 2^53 + 1 and a 63-bit search param round to their neighbours through
  // a double; integral literals must not.
  EXPECT_EQ(json_parse("9007199254740993").as_int(), 9007199254740993LL);
  EXPECT_EQ(json_parse("2940488688193949891").as_int(),
            2940488688193949891LL);
  EXPECT_EQ(json_parse("9223372036854775807").as_int(),
            9223372036854775807LL);
  EXPECT_EQ(json_parse("-9223372036854775808").as_int(),
            -9223372036854775807LL - 1);
  EXPECT_THROW((void)json_parse("9223372036854775808").as_int(), JsonError);
  EXPECT_THROW((void)json_parse("-9223372036854775809").as_int(), JsonError);
}

TEST(Json, AsU64CoversTheWholeUnsignedRange) {
  EXPECT_EQ(json_parse("0").as_u64(), 0u);
  EXPECT_EQ(json_parse("9007199254740993").as_u64(), 9007199254740993ULL);
  EXPECT_EQ(json_parse("18446744073709551615").as_u64(),
            18446744073709551615ULL);
  EXPECT_EQ(json_parse("1e3").as_u64(), 1000u);
  EXPECT_THROW((void)json_parse("18446744073709551616").as_u64(), JsonError);
  EXPECT_THROW((void)json_parse("-1").as_u64(), JsonError);
  EXPECT_THROW((void)json_parse("1.5").as_u64(), JsonError);
  EXPECT_THROW((void)json_parse("\"1\"").as_u64(), JsonError);
}

}  // namespace
}  // namespace ep
