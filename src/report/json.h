// Minimal JSON reader/writer (no external dependencies) used to exchange
// structured data with downstream tooling: sign-off reports, sweep series,
// and the request/response schema of the service front end.
//
// Writing has two faces over one emitter. JsonWriter streams values in
// document order into a string, or through an optional sink; it alone
// turns values into JSON bytes (escaping, %.10g / %lld number text,
// separators, indentation). Numbers are formatted without printf: an exact
// fast %.10g (see JsonWriter::number) and std::to_chars for integers.
// Json is a small builder API for value trees, and Json::dump walks a tree
// through a JsonWriter, so a tree and a writer fed the same values emit the
// same bytes. Output is deterministic (insertion order). Numeric policy is
// explicit: Json::number() and JsonWriter::number() REJECT NaN/Inf with a
// dsmt::SolveError (kNonFinite) — a bare `nan` must never reach a payload —
// while the number_or_null() variants are the opt-in lossy mapping
// (non-finite -> null) for diagnostic fields where NaN is a legitimate
// observation (e.g. a fault-injected residual).
//
// Reading (Json::parse) is a strict recursive-descent parser with a depth
// bound; malformed input raises dsmt::SolveError (kInvalidInput) carrying
// the byte offset. parse(dump(x)) round-trips every tree the builder can
// produce, including adversarial strings (quotes, backslashes, control
// characters, \uXXXX escapes). A document that is one large array can be
// read element by element instead: Json::array_spans finds each element's
// bytes and Json::parse_element parses one of them with the same parser,
// the same 64-level bound and the same duplicate-key check, so no tree of
// the whole document is ever built.
#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace dsmt::report {

/// The one emitter of JSON bytes: writes values in document order into a
/// string. `indent` < 0 means compact. `depth` is the nesting level the
/// first value is written at, so a part written on its own joins a
/// document at that level byte for byte. Keys and values must alternate as
/// JSON requires; the writer does not check it.
///
/// With a sink, the writer streams: a parallel array() hands the bytes
/// before it and each finished part to the sink in document order instead
/// of appending them, and flush() hands over the rest. The concatenation of
/// everything the sink receives is the bytes take() would return without
/// one.
class JsonWriter {
 public:
  /// Receives a writer's bytes, run by run, in document order.
  using Sink = std::function<void(std::string_view)>;

  explicit JsonWriter(int indent = -1, int depth = 0, Sink sink = nullptr);

  JsonWriter& begin_object();
  JsonWriter& end_object();
  JsonWriter& begin_array();
  JsonWriter& end_array();
  /// Object member key; the next value written is the member's value.
  JsonWriter& key(std::string_view name);
  JsonWriter& string(std::string_view value);
  /// Writes value as snprintf("%.10g") does, byte for byte, mostly
  /// without calling it: |value| is scaled by an exact power of ten (10^k,
  /// |k| <= 27) in x87 long double, whose one rounding errs by at most
  /// ~5e-10 on the 10-digit integer, which is then laid out as %g does.
  /// snprintf writes it instead for a fraction within 1e-8 of .5 (a
  /// near-tie the error could flip), k out of range, 0 and -0, and where
  /// long double is not the x87 format. Throws dsmt::SolveError
  /// (kNonFinite) when value [1] is NaN/Inf, as Json::number() does.
  JsonWriter& number(double value);
  /// value [1]: like number(), but writes null for a non-finite value.
  JsonWriter& number_or_null(double value);
  JsonWriter& integer(long long value);
  JsonWriter& boolean(bool value);
  JsonWriter& null();

  /// Writes an array of `count` items; write_item(w, i) writes item i into
  /// `w`. An array of 256 or more items renders across the parallel pool
  /// (serially inside a parallel region): each contiguous run of items goes
  /// into one part, at most thread_count() * 8 parts, every item preceded
  /// by the separator and newline the serial loop writes before it. The
  /// parts are appended, or handed to the sink, in index order: the bytes
  /// are the same at every thread count.
  JsonWriter& array(
      std::size_t count,
      const std::function<void(JsonWriter&, std::size_t)>& write_item);

  /// The bytes written so far; the writer is spent afterwards.
  std::string take() { return std::move(out_); }
  /// Hands the bytes written since the sink last got any to the sink.
  /// Without a sink they stay for take().
  void flush();

 private:
  void before_value();
  void newline(std::size_t depth);
  void escaped(std::string_view s);
  std::size_t depth() const { return base_depth_ + open_.size(); }

  int indent_;
  std::size_t base_depth_;
  Sink sink_;
  std::string out_;
  std::vector<bool> open_;  ///< per open container: holds a member yet
  bool after_key_ = false;
};

/// A JSON value tree.
class Json {
 public:
  static Json object();
  static Json array();
  static Json string(std::string value);
  /// value [1]: emitted verbatim, unit is the caller's concern. Throws
  /// dsmt::SolveError (kNonFinite) when value is NaN/Inf: payloads carry
  /// finite numbers or an explicit null, never `nan`.
  static Json number(double value);
  /// value [1]: like number(), but maps non-finite to JSON null instead of
  /// throwing — for diagnostics where NaN is the honest observation.
  static Json number_or_null(double value);
  static Json integer(long long value);
  static Json boolean(bool value);
  static Json null();

  /// Parses a complete JSON document (trailing garbage is an error). Throws
  /// dsmt::SolveError (kInvalidInput) with the byte offset on malformed
  /// input or nesting deeper than 64 levels.
  static Json parse(const std::string& text);

  /// Byte range [begin, end) of a text.
  struct Span {
    std::size_t begin = 0;
    std::size_t end = 0;
  };
  /// Scans `text` for one top-level array, with only whitespace around it,
  /// and stores the span of each element (its surrounding whitespace
  /// included). Skips string contents, escapes included. Returns false when
  /// the text is not such an array. Brackets are only counted, not matched:
  /// for a valid array the spans are exact, and when the text is not valid
  /// JSON at least one span fails parse_element.
  static bool array_spans(const std::string& text, std::vector<Span>& spans);
  /// Parses text[span] as one complete value nested at depth 1, an element
  /// of a top-level array: the depth bound and every check of parse()
  /// apply as they do to that element inside parse(text). Throws
  /// std::out_of_range when the span does not lie inside the text.
  static Json parse_element(const std::string& text, Span span);

  bool is_object() const { return kind_ == Kind::kObject; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_number() const {
    return kind_ == Kind::kNumber || kind_ == Kind::kInteger;
  }
  bool is_bool() const { return kind_ == Kind::kBool; }
  bool is_null() const { return kind_ == Kind::kNull; }

  /// Numeric value [1] of a number/integer node; throws dsmt::SolveError
  /// (kInvalidInput) on any other kind.
  double as_number() const;
  /// Integer value of an integer node (or a number with integral value).
  long long as_integer() const;
  const std::string& as_string() const;
  bool as_bool() const;

  /// Object member lookup; nullptr when absent or not an object. Objects
  /// never hold duplicate keys (set() replaces, parse() rejects them).
  const Json* find(const std::string& key) const;
  /// Array length / object member count (0 for scalars).
  std::size_t size() const;
  /// Array element; throws std::out_of_range.
  const Json& at(std::size_t index) const;
  /// Object member by position (insertion order); throws std::out_of_range.
  const std::pair<std::string, Json>& member(std::size_t index) const;

  /// Object member (asserts object kind); an existing key is replaced in
  /// place, keeping its insertion position. Returns *this for chaining.
  Json& set(const std::string& key, Json value);
  /// Array append (asserts array kind).
  Json& push(Json value);

  /// Serializes; `indent` < 0 means compact. Arrays render through
  /// JsonWriter::array, so the bytes are the same at every thread count.
  std::string dump(int indent = 2) const;
  /// Writes this tree as the writer's next value.
  void write_to(JsonWriter& out) const;

 private:
  enum class Kind {
    kObject,
    kArray,
    kString,
    kNumber,
    kInteger,
    kBool,
    kNull
  };
  Kind kind_ = Kind::kObject;
  std::string str_;
  double num_ = 0.0;
  long long int_ = 0;
  bool bool_ = false;
  std::vector<std::pair<std::string, Json>> members_;
  std::vector<Json> items_;
};

}  // namespace dsmt::report
