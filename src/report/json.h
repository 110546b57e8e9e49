// Minimal JSON reader/writer (no external dependencies) used to exchange
// structured data with downstream tooling: sign-off reports, sweep series,
// and the request/response schema of the service front end.
//
// Writing supports objects, arrays, strings (escaped), numbers, booleans,
// and null via a small builder API; output is deterministic (insertion
// order). Numeric policy is explicit: Json::number() REJECTS NaN/Inf with a
// dsmt::SolveError (kNonFinite) — a bare `nan` must never reach a payload —
// while Json::number_or_null() is the opt-in lossy mapping (non-finite ->
// null) for diagnostic fields where NaN is a legitimate observation (e.g. a
// fault-injected residual).
//
// Reading (Json::parse) is a strict recursive-descent parser with a depth
// bound; malformed input raises dsmt::SolveError (kInvalidInput) carrying
// the byte offset. parse(dump(x)) round-trips every tree the builder can
// produce, including adversarial strings (quotes, backslashes, control
// characters, \uXXXX escapes).
#pragma once

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

namespace dsmt::report {

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

  /// Serializes; `indent` < 0 means compact. An array of 256 or more items
  /// renders its items across the parallel pool (serially inside a parallel
  /// region); the bytes are the same at every thread count.
  std::string dump(int indent = 2) const;

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

  void dump_to(std::string& out, int indent, int depth) const;
};

}  // namespace dsmt::report
