// JSON writer/parser and sign-off serialization tests.
#include <gtest/gtest.h>

#include <bit>
#include <cfloat>
#include <climits>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>
#include <vector>

#include "core/signoff.h"
#include "numeric/constants.h"
#include "report/json.h"
#include "tech/ntrs.h"

namespace dsmt::report {
namespace {

TEST(Json, Scalars) {
  EXPECT_EQ(Json::string("hi").dump(-1), "\"hi\"");
  EXPECT_EQ(Json::integer(42).dump(-1), "42");
  EXPECT_EQ(Json::boolean(true).dump(-1), "true");
  EXPECT_EQ(Json::number(1.5).dump(-1), "1.5");
  EXPECT_EQ(Json::null().dump(-1), "null");
}

TEST(Json, NonFinitePolicy) {
  // number() rejects at construction: a bare `nan`/`inf` must never reach a
  // payload. number_or_null() is the opt-in lossy mapping for diagnostics.
  EXPECT_THROW(Json::number(std::nan("")), SolveError);
  EXPECT_THROW(Json::number(std::numeric_limits<double>::infinity()),
               SolveError);
  EXPECT_THROW(Json::number(-std::numeric_limits<double>::infinity()),
               SolveError);
  EXPECT_EQ(Json::number_or_null(std::nan("")).dump(-1), "null");
  EXPECT_EQ(Json::number_or_null(std::numeric_limits<double>::infinity())
                .dump(-1),
            "null");
  EXPECT_EQ(Json::number_or_null(2.5).dump(-1), "2.5");
  try {
    Json::number(std::nan(""));
    FAIL() << "expected SolveError";
  } catch (const SolveError& e) {
    EXPECT_EQ(e.status(), core::StatusCode::kNonFinite);
  }
}

TEST(JsonParse, ScalarsAndStructure) {
  EXPECT_TRUE(Json::parse("null").is_null());
  EXPECT_EQ(Json::parse("-12").as_integer(), -12);
  EXPECT_DOUBLE_EQ(Json::parse("2.5e-1").as_number(), 0.25);
  EXPECT_TRUE(Json::parse("true").as_bool());
  EXPECT_EQ(Json::parse("\"a\\nb\"").as_string(), "a\nb");
  const Json doc = Json::parse(R"({"xs": [1, 2.5, "three"], "ok": false})");
  ASSERT_TRUE(doc.is_object());
  const Json* xs = doc.find("xs");
  ASSERT_NE(xs, nullptr);
  ASSERT_EQ(xs->size(), 3u);
  EXPECT_EQ(xs->at(0).as_integer(), 1);
  EXPECT_DOUBLE_EQ(xs->at(1).as_number(), 2.5);
  EXPECT_EQ(xs->at(2).as_string(), "three");
  EXPECT_FALSE(doc.find("ok")->as_bool());
  EXPECT_EQ(doc.find("missing"), nullptr);
}

TEST(JsonParse, MalformedInputThrows) {
  const std::vector<std::string> bad = {
      "",           "{",           "[1,]",       "{\"a\":}",
      "nul",        "1 2",         "\"unterminated",
      "{\"a\" 1}",  "[1 2]",       "+5",
      "\"bad\\q\"", "\"\\u12\"",   "nan",        "inf",
      std::string("\"ctrl\x01\""),
      // RFC 8259 number grammar violations a lax strtod would accept.
      "01",         "-01",         "00",         "1.",
      ".5",         "1e",          "1e+",        "1.e3",
      "0x10",       "1e5e5",       "--1",        "1.2.3",
  };
  for (const std::string& text : bad)
    EXPECT_THROW(Json::parse(text), SolveError) << "input: " << text;
  // Depth bound: 70 nested arrays exceed the 64-level parser limit.
  std::string deep;
  for (int i = 0; i < 70; ++i) deep += '[';
  EXPECT_THROW(Json::parse(deep), SolveError);
}

TEST(JsonParse, IntegerOverflowFallsThroughToDouble) {
  // In-range literals stay exact integers...
  EXPECT_EQ(Json::parse("9223372036854775807").as_integer(),
            9223372036854775807LL);
  EXPECT_EQ(Json::parse("-9223372036854775808").as_integer(),
            std::numeric_limits<long long>::min());
  // ...while out-of-range ones must NOT silently clamp to LLONG_MAX/MIN
  // (strtoll consumes the whole token and sets errno=ERANGE): they fall
  // through to the double path.
  const Json big = Json::parse("18446744073709551616");  // 2^64
  EXPECT_DOUBLE_EQ(big.as_number(), 18446744073709551616.0);
  EXPECT_THROW(big.as_integer(), SolveError);  // not representable
  EXPECT_DOUBLE_EQ(Json::parse("-92233720368547758080").as_number(),
                   -92233720368547758080.0);
  // Still finite-guarded: a double-overflowing literal is rejected.
  EXPECT_THROW(Json::parse("1e999"), SolveError);
}

TEST(JsonParse, DuplicateObjectKeysRejected) {
  EXPECT_THROW(Json::parse(R"({"a": 1, "a": 2})"), SolveError);
  EXPECT_THROW(Json::parse(R"({"a": 1, "b": {"c": 1, "c": 2}})"),
               SolveError);
  // Same key in sibling objects is fine.
  const Json doc = Json::parse(R"([{"a": 1}, {"a": 2}])");
  EXPECT_EQ(doc.at(1).find("a")->as_integer(), 2);
  // The builder can't create duplicates either: set() replaces in place.
  Json obj = Json::object();
  obj.set("k", Json::integer(1)).set("other", Json::integer(5));
  obj.set("k", Json::integer(7));
  EXPECT_EQ(obj.size(), 2u);
  EXPECT_EQ(obj.find("k")->as_integer(), 7);
  EXPECT_EQ(obj.dump(-1), R"({"k":7,"other":5})");
}

TEST(JsonParse, AdversarialStringRoundTrip) {
  // Escaping round-trip for the strings a hostile request could carry in
  // its id field: parse(dump(x)) must reproduce x byte-for-byte.
  std::string all_controls;
  for (char c = 1; c < 0x20; ++c) all_controls.push_back(c);
  const std::vector<std::string> nasty = {
      "",
      "plain",
      "quote\" backslash\\ slash/",
      "newline\n tab\t return\r backspace\b formfeed\f",
      all_controls,
      std::string("embedded\0nul", 12),
      "unicode \xc3\xa9 \xe2\x82\xac \xf0\x9f\x92\xa1",  // é € U+1F4A1
      "\\u0041 literal, not an escape",
      "{\"looks\": [\"like\", \"json\"]}",
  };
  for (const std::string& s : nasty) {
    const std::string dumped = Json::string(s).dump(-1);
    const Json back = Json::parse(dumped);
    EXPECT_EQ(back.as_string(), s);
    // And once more through an object member, as requests do.
    Json obj = Json::object();
    obj.set("id", Json::string(s));
    const Json reparsed = Json::parse(obj.dump(2));
    const Json* id = reparsed.find("id");
    ASSERT_NE(id, nullptr);
    EXPECT_EQ(id->as_string(), s);
  }
  // \uXXXX escapes decode, including surrogate pairs.
  EXPECT_EQ(Json::parse("\"\\u0041\"").as_string(), "A");
  EXPECT_EQ(Json::parse("\"\\u00e9\"").as_string(), "\xc3\xa9");
  EXPECT_EQ(Json::parse("\"\\ud83d\\udca1\"").as_string(),
            "\xf0\x9f\x92\xa1");
  EXPECT_THROW(Json::parse("\"\\ud83d\""), SolveError);  // lone surrogate
}

TEST(JsonParse, DumpParseRoundTripTree) {
  Json root = Json::object();
  root.set("name", Json::string("dsmt"))
      .set("count", Json::integer(-7))
      .set("x", Json::number(0.1))
      .set("flag", Json::boolean(false))
      .set("none", Json::null());
  Json arr = Json::array();
  arr.push(Json::number(1e-300)).push(Json::string("s")).push(Json::null());
  root.set("xs", std::move(arr));
  for (const int indent : {-1, 0, 2, 4}) {
    const Json back = Json::parse(root.dump(indent));
    EXPECT_EQ(back.dump(-1), root.dump(-1)) << "indent " << indent;
  }
}

TEST(JsonParse, ArraySpansSplitTopLevelElementsOnly) {
  // Strings hiding every structural byte, escaped quotes and backslashes,
  // nested containers, and whitespace of all four kinds around elements.
  const std::string text =
      " \n[ \"a,]}\" ,{\"k\": [1, {\"x\": \"\\\"],\"}]},\t[[], {}]\r,"
      "\"\\\\\", -0.5e3 ,null, \"\\u005d\"]\t\n";
  const Json doc = Json::parse(text);
  std::vector<Json::Span> spans;
  ASSERT_TRUE(Json::array_spans(text, spans));
  ASSERT_EQ(spans.size(), doc.size());
  for (std::size_t i = 0; i < spans.size(); ++i)
    EXPECT_EQ(Json::parse_element(text, spans[i]).dump(-1),
              doc.at(i).dump(-1))
        << "element " << i;
  ASSERT_TRUE(Json::array_spans(" [ ] ", spans));
  EXPECT_TRUE(spans.empty());
  // Not one plain top-level array.
  for (const char* other : {"", " ", "{}", "1", "[1] [2]", "[1]x", "[1",
                            "[\"a]", "[{]}", "\f[]"})
    EXPECT_FALSE(Json::array_spans(other, spans)) << other;
  // parse_element runs the full parser, bounded to its span, with the
  // depth bound of an element (one level below the document).
  for (const int levels : {64, 65}) {
    const std::string deep = "[" + std::string(levels, '[') +
                             std::string(levels, ']') + "]";
    ASSERT_TRUE(Json::array_spans(deep, spans));
    if (levels == 64) {
      EXPECT_NO_THROW(Json::parse(deep));
      EXPECT_NO_THROW(Json::parse_element(deep, spans[0]));
    } else {
      EXPECT_THROW(Json::parse(deep), SolveError);
      EXPECT_THROW(Json::parse_element(deep, spans[0]), SolveError);
    }
  }
  EXPECT_THROW(Json::parse_element("[tru,e]", {1, 4}), SolveError);
  EXPECT_THROW(Json::parse_element("[{\"a\":1,\"a\":2}]", {1, 14}),
               SolveError);
  EXPECT_THROW(Json::parse_element("[1]", {1, 9}), std::out_of_range);
  EXPECT_THROW(Json::parse_element("[1 2]", {1, 4}), SolveError);
}

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Uniform in [0, 1) with 53 random bits.
double unit(std::uint64_t& state) {
  return static_cast<double>(splitmix64(state) >> 11) * 0x1p-53;
}

/// Feeds values to JsonWriter::number and to snprintf("%.10g"), in blocks
/// written as one compact array each, and counts the values whose text
/// differs. The first few mismatches are reported.
class G10Differential {
 public:
  ~G10Differential() { flush(); }

  void check(double value) {
    block_.push_back(value);
    if (block_.size() == 4096) flush();
  }
  std::size_t checked() const { return checked_; }
  std::size_t mismatches() const { return mismatches_; }

  void flush() {
    if (block_.empty()) return;
    JsonWriter out;
    out.begin_array();
    std::string expected = "[";
    char buf[40];
    for (std::size_t i = 0; i < block_.size(); ++i) {
      out.number(block_[i]);
      std::snprintf(buf, sizeof buf, "%.10g", block_[i]);
      if (i > 0) expected += ',';
      expected += buf;
    }
    out.end_array();
    expected += ']';
    checked_ += block_.size();
    if (out.take() != expected) {
      for (const double v : block_) {
        JsonWriter one;
        one.number(v);
        std::snprintf(buf, sizeof buf, "%.10g", v);
        if (one.take() == buf) continue;
        if (++mismatches_ <= 10)
          ADD_FAILURE() << "%.10g of " << std::hexfloat << v << " is " << buf;
      }
    }
    block_.clear();
  }

 private:
  std::vector<double> block_;
  std::size_t checked_ = 0;
  std::size_t mismatches_ = 0;
};

TEST(JsonNumber, G10IsPrintfByteForByte) {
  G10Differential diff;
  std::uint64_t state = 20261018;
  const auto both_signs = [&](double v) {
    if (!std::isfinite(v)) return;
    diff.check(v);
    diff.check(-v);
  };
  // Random bit patterns: every binary exponent, subnormals included.
  for (int i = 0; i < 500'000; ++i) {
    const double v = std::bit_cast<double>(splitmix64(state));
    if (std::isfinite(v)) diff.check(v);
  }
  // Log-uniform over every decade, 1e-320 .. 1e308.
  for (int i = 0; i < 500'000; ++i)
    both_signs(std::pow(10.0, -320.0 + 628.0 * unit(state)));
  // Log-uniform over 1e-25 .. 1e35, the decades service payloads live in.
  for (int i = 0; i < 3'000'000; ++i)
    both_signs(std::pow(10.0, -25.0 + 60.0 * unit(state)));
  // A 10-digit midpoint d.ddddddddd5 x 10^e and the doubles next to it:
  // the values a rounding error would flip.
  char text[48];
  for (int i = 0; i < 300'000; ++i) {
    const long long digits =
        1'000'000'000LL + static_cast<long long>(splitmix64(state) %
                                                  9'000'000'000ULL);
    const int exponent = static_cast<int>(splitmix64(state) % 80) - 40;
    std::snprintf(text, sizeof text, "%lld5e%d", digits, exponent - 10);
    double v = std::strtod(text, nullptr);
    for (int step = 0; step < 2; ++step) v = std::nextafter(v, 0.0);
    for (int step = 0; step < 5; ++step) {
      both_signs(v);
      v = std::nextafter(v, INFINITY);
    }
  }
  // Exact ties, which snprintf breaks to even: n.5 for 10-digit n, and
  // 11-digit integers ending in 5 times powers of ten below 2^53.
  for (int i = 0; i < 200'000; ++i) {
    const auto n = static_cast<double>(
        1'000'000'000LL + static_cast<long long>(splitmix64(state) %
                                                  9'000'000'000ULL));
    both_signs(n + 0.5);
    both_signs((n * 10.0 + 5.0) * std::pow(10.0, static_cast<int>(i % 5)));
  }
  // The %g style switches and the carries into the next decade.
  const double edges[] = {
      1e-5, 1e-4, 9.9999999995e-5, 9.99999999949e-5, 9.99999999951e-5,
      0.001, 0.1, 1.0, 9.9999999995, 999999999.95, 9999999999.0,
      9999999999.4, 9999999999.5, 9999999999.6, 1e10, 1e9, 123456789012.0,
      1e-18, 1e-19, 1e36, 1e37, 9.9999999995e36, 1e100, 1e-100, 0.0,
      DBL_MAX, DBL_MIN, DBL_TRUE_MIN, DBL_MIN / 3.0, DBL_EPSILON,
      1.25e-13, 104.31234567891, 1.8973665961010275, 6.0e-3};
  for (const double v : edges) {
    both_signs(v);
    both_signs(std::nextafter(v, 0.0));
    both_signs(std::nextafter(v, INFINITY));
  }
  for (int e = -330; e <= 310; ++e) {
    std::snprintf(text, sizeof text, "1e%d", e);
    const double v = std::strtod(text, nullptr);
    if (!std::isfinite(v)) continue;
    both_signs(v);
    both_signs(std::nextafter(v, 0.0));
    both_signs(std::nextafter(v, INFINITY));
  }
  diff.flush();
  EXPECT_GE(diff.checked(), 10'000'000u);
  EXPECT_EQ(diff.mismatches(), 0u) << "of " << diff.checked() << " values";
}

TEST(JsonNumber, IntegerIsPrintfLld) {
  char buf[32];
  for (const long long v : {LLONG_MIN, LLONG_MIN + 1, -1000000000000LL, -1LL,
                            0LL, 7LL, 1234567890123LL, LLONG_MAX}) {
    JsonWriter out;
    out.integer(v);
    std::snprintf(buf, sizeof buf, "%lld", v);
    EXPECT_EQ(out.take(), buf);
  }
}

TEST(Json, StringEscaping) {
  EXPECT_EQ(Json::string("a\"b\\c\nd").dump(-1), "\"a\\\"b\\\\c\\nd\"");
  EXPECT_EQ(Json::string(std::string(1, '\x01')).dump(-1), "\"\\u0001\"");
}

TEST(Json, NestedStructure) {
  Json root = Json::object();
  root.set("name", Json::string("dsmt"));
  Json arr = Json::array();
  arr.push(Json::integer(1)).push(Json::integer(2));
  root.set("values", std::move(arr));
  root.set("nested", Json::object().set("ok", Json::boolean(false)));
  EXPECT_EQ(root.dump(-1),
            "{\"name\":\"dsmt\",\"values\":[1,2],\"nested\":{\"ok\":false}}");
  // Indented output contains newlines and preserves order.
  const std::string pretty = root.dump(2);
  EXPECT_NE(pretty.find("\n  \"name\""), std::string::npos);
  EXPECT_LT(pretty.find("name"), pretty.find("values"));
}

TEST(Json, EmptyContainers) {
  EXPECT_EQ(Json::object().dump(-1), "{}");
  EXPECT_EQ(Json::array().dump(-1), "[]");
}

TEST(Json, KindMisuseThrows) {
  Json arr = Json::array();
  EXPECT_THROW(arr.set("x", Json::integer(1)), std::logic_error);
  Json obj = Json::object();
  EXPECT_THROW(obj.push(Json::integer(1)), std::logic_error);
}

TEST(Json, SignoffReportSerializes) {
  core::SignoffOptions opts;
  opts.j0 = MA_per_cm2(0.6);
  opts.engine.sim.steps_per_period = 1200;
  opts.engine.sim.line_segments = 12;
  const auto report = core::run_signoff(tech::make_ntrs_250nm_cu(), opts);
  const std::string json = report.to_json();
  EXPECT_NE(json.find("\"technology\": \"NTRS-250nm-Cu\""), std::string::npos);
  EXPECT_NE(json.find("\"design_rules\""), std::string::npos);
  EXPECT_NE(json.find("\"global_checks\""), std::string::npos);
  EXPECT_NE(json.find("\"esd\""), std::string::npos);
  EXPECT_NE(json.find("\"all_global_layers_pass\": true"), std::string::npos);
  // Rough structural sanity: one design-rule object per table cell.
  std::size_t count = 0, pos = 0;
  while ((pos = json.find("\"jpeak_MA_cm2\"", pos)) != std::string::npos) {
    ++count;
    ++pos;
  }
  EXPECT_EQ(count, report.design_rules.size());
}

}  // namespace
}  // namespace dsmt::report
