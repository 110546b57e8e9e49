#include "report/json.h"

#include <bit>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <stdexcept>

#include "core/status.h"
#include "parallel/parallel_for.h"

namespace dsmt::report {

namespace {

[[noreturn]] void throw_json_error(const char* kernel, const std::string& what,
                                   core::StatusCode status) {
  core::SolverDiag diag;
  diag.record(kernel, status, 0, 0.0, what);
  throw SolveError("report/json: " + what, diag);
}

[[noreturn]] void throw_non_finite() {
  throw_json_error("report/json", "non-finite number in payload "
                   "(use number_or_null for diagnostic fields)",
                   core::StatusCode::kNonFinite);
}

/// 10^0 .. 10^27. 10^27 = 2^27 * 5^27 and 5^27 < 2^64, so every entry is
/// exact in a long double with a 64-bit significand.
constexpr long double kPow10[] = {
    1e0L,  1e1L,  1e2L,  1e3L,  1e4L,  1e5L,  1e6L,  1e7L,  1e8L,  1e9L,
    1e10L, 1e11L, 1e12L, 1e13L, 1e14L, 1e15L, 1e16L, 1e17L, 1e18L, 1e19L,
    1e20L, 1e21L, 1e22L, 1e23L, 1e24L, 1e25L, 1e26L, 1e27L};
constexpr int kMaxScale = 27;

/// Writes value as %.10g into buf without printf and returns the end, or
/// nullptr when the value needs snprintf: 0 and -0, a decimal exponent
/// outside [-18, 36] (the scale 10^(9-X) needs |9-X| <= 27), a near-tie, or
/// a long double that is not the x87 80-bit format (the rounding below
/// reads its 64-bit significand). `value` is finite.
char* format_g10_fast(double value, char* buf) {
  if constexpr (std::numeric_limits<long double>::digits != 64 ||
                std::endian::native != std::endian::little)
    return nullptr;
  if (value == 0.0) return nullptr;
  const double a = std::fabs(value);
  // The decimal exponent floor(log10(a)) is floor((e2 - 1) * log10(2)) or
  // one more, with e2 the binary exponent of a = m * 2^e2, m in [0.5, 1).
  // 78913 / 2^18 is log10(2) to 6 digits, which can put the estimate one
  // lower still; the loop below corrects x by up to two steps.
  const int e2 =
      static_cast<int>((std::bit_cast<std::uint64_t>(a) >> 52) & 0x7ff) - 1022;
  int x = ((e2 - 1) * 78913) >> 18;
  // scaled = a * 10^(9 - x), in [1e9, 1e10) once x is the decimal exponent.
  // Multiplying or dividing by an exact power of ten rounds once: the
  // relative error is at most 2^-64, under 5.5e-10 on a value below 1e10.
  long double scaled = 0.0L;
  for (int tries = 0;; ++tries) {
    const int k = 9 - x;
    if (tries == 3 || k > kMaxScale || k < -kMaxScale) return nullptr;
    scaled = k >= 0 ? a * kPow10[k] : a / kPow10[-k];
    if (scaled >= 1e10L)
      ++x;
    else if (scaled < 1e9L)
      --x;
    else
      break;
  }
  // Adding 2^63 rounds scaled to the nearest integer (the default rounding
  // mode, which snprintf honours too), which then sits in the low bits of
  // the 64-bit significand.
  const long double rounded = scaled + 0x1p63L;
  std::uint64_t digits = 0;
  std::memcpy(&digits, &rounded, sizeof digits);
  digits -= std::uint64_t{1} << 63;
  // Within the error bound of .5 the rounding direction is not known.
  const long double fraction = scaled - (rounded - 0x1p63L);
  if (std::fabs(std::fabs(fraction) - 0.5L) < 1e-8L) return nullptr;
  if (digits == 10000000000ULL) {  // 9999999999.5 and up carry into X + 1
    digits = 1000000000ULL;
    ++x;
  }
  char d[10];
  for (int i = 9; i >= 0; --i) {
    d[i] = static_cast<char>('0' + digits % 10);
    digits /= 10;
  }
  int last = 9;  // the last digit %g keeps: trailing zeros are stripped
  while (last > 0 && d[last] == '0') --last;

  char* p = buf;
  if (value < 0.0) *p++ = '-';
  if (x >= -4 && x < 10) {  // %g's fixed style, 9 - x fraction digits
    if (x >= 0) {
      for (int i = 0; i <= x; ++i) *p++ = d[i];
      if (last > x) {
        *p++ = '.';
        for (int i = x + 1; i <= last; ++i) *p++ = d[i];
      }
    } else {
      *p++ = '0';
      *p++ = '.';
      for (int i = 0; i < -x - 1; ++i) *p++ = '0';
      for (int i = 0; i <= last; ++i) *p++ = d[i];
    }
    return p;
  }
  *p++ = d[0];  // %g's exponent style, 9 fraction digits
  if (last > 0) {
    *p++ = '.';
    for (int i = 1; i <= last; ++i) *p++ = d[i];
  }
  // |x| <= 36 here, so the exponent has the two digits %e writes at least.
  const int e = x < 0 ? -x : x;
  *p++ = 'e';
  *p++ = x < 0 ? '-' : '+';
  *p++ = static_cast<char>('0' + e / 10);
  *p++ = static_cast<char>('0' + e % 10);
  return p;
}

}  // namespace

Json Json::object() {
  Json j;
  j.kind_ = Kind::kObject;
  return j;
}
Json Json::array() {
  Json j;
  j.kind_ = Kind::kArray;
  return j;
}
Json Json::string(std::string value) {
  Json j;
  j.kind_ = Kind::kString;
  j.str_ = std::move(value);
  return j;
}
Json Json::number(double value) {
  if (!std::isfinite(value)) throw_non_finite();
  Json j;
  j.kind_ = Kind::kNumber;
  j.num_ = value;
  return j;
}
Json Json::number_or_null(double value) {
  if (!std::isfinite(value)) return null();
  Json j;
  j.kind_ = Kind::kNumber;
  j.num_ = value;
  return j;
}
Json Json::integer(long long value) {
  Json j;
  j.kind_ = Kind::kInteger;
  j.int_ = value;
  return j;
}
Json Json::boolean(bool value) {
  Json j;
  j.kind_ = Kind::kBool;
  j.bool_ = value;
  return j;
}
Json Json::null() {
  Json j;
  j.kind_ = Kind::kNull;
  return j;
}

double Json::as_number() const {
  if (kind_ == Kind::kNumber) return num_;
  if (kind_ == Kind::kInteger) return static_cast<double>(int_);
  throw_json_error("report/json", "as_number on non-numeric node",
                   core::StatusCode::kInvalidInput);
}

long long Json::as_integer() const {
  if (kind_ == Kind::kInteger) return int_;
  if (kind_ == Kind::kNumber && num_ == std::floor(num_) &&
      std::abs(num_) < 9.2e18)
    return static_cast<long long>(num_);
  throw_json_error("report/json", "as_integer on non-integral node",
                   core::StatusCode::kInvalidInput);
}

const std::string& Json::as_string() const {
  if (kind_ != Kind::kString)
    throw_json_error("report/json", "as_string on non-string node",
                     core::StatusCode::kInvalidInput);
  return str_;
}

bool Json::as_bool() const {
  if (kind_ != Kind::kBool)
    throw_json_error("report/json", "as_bool on non-boolean node",
                     core::StatusCode::kInvalidInput);
  return bool_;
}

const Json* Json::find(const std::string& key) const {
  if (kind_ != Kind::kObject) return nullptr;
  for (const auto& [k, v] : members_)
    if (k == key) return &v;
  return nullptr;
}

std::size_t Json::size() const {
  if (kind_ == Kind::kArray) return items_.size();
  if (kind_ == Kind::kObject) return members_.size();
  return 0;
}

const Json& Json::at(std::size_t index) const {
  if (kind_ != Kind::kArray || index >= items_.size())
    throw std::out_of_range("Json::at: index out of range");
  return items_[index];
}

const std::pair<std::string, Json>& Json::member(std::size_t index) const {
  if (kind_ != Kind::kObject || index >= members_.size())
    throw std::out_of_range("Json::member: index out of range");
  return members_[index];
}

Json& Json::set(const std::string& key, Json value) {
  if (kind_ != Kind::kObject)
    throw std::logic_error("Json::set on non-object");
  // Replace in place (keeping insertion order) so the writer can never
  // build — and dump() can never emit — an object with duplicate keys.
  for (auto& [k, v] : members_) {
    if (k == key) {
      v = std::move(value);
      return *this;
    }
  }
  members_.emplace_back(key, std::move(value));
  return *this;
}

Json& Json::push(Json value) {
  if (kind_ != Kind::kArray) throw std::logic_error("Json::push on non-array");
  items_.push_back(std::move(value));
  return *this;
}

namespace {

/// Arrays with at least this many items render their items across the
/// pool. Smaller ones, such as a reply's diag chain, render serially: a
/// fan-out's fixed cost of tens of microseconds would dominate them.
constexpr std::size_t kParallelDumpItems = 256;

/// True when an array of `items` should render across the pool: it is
/// large enough, more than one thread is configured, and no parallel region
/// is active (a nested array renders serially inside its caller's block).
bool dumps_in_parallel(std::size_t items) {
  return items >= kParallelDumpItems && !parallel::on_worker_thread() &&
         !parallel::in_parallel_region() && parallel::thread_count() > 1;
}

/// Recursive-descent JSON parser. Strict: one document, no trailing bytes,
/// nesting bounded so a deep adversarial input cannot blow the stack.
class Parser {
 public:
  Parser(const std::string& text, std::size_t begin, std::size_t end)
      : text_(text), pos_(begin), end_(end) {}

  /// The one value in [begin, end), nested at `depth`; nothing but
  /// whitespace may follow it.
  Json parse_whole(int depth) {
    Json value = parse_value(depth);
    skip_ws();
    if (pos_ != end_) fail("trailing bytes after document");
    return value;
  }

 private:
  static constexpr int kMaxDepth = 64;

  [[noreturn]] void fail(const std::string& what) const {
    throw_json_error("report/json/parse",
                     "parse error at offset " + std::to_string(pos_) + ": " +
                         what,
                     core::StatusCode::kInvalidInput);
  }

  void skip_ws() {
    while (pos_ < end_) {
      const char c = text_[pos_];
      if (c == ' ' || c == '\t' || c == '\n' || c == '\r')
        ++pos_;
      else
        break;
    }
  }

  char peek() {
    if (pos_ >= end_) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(const char* lit) {
    std::size_t n = 0;
    while (lit[n] != '\0') ++n;
    if (end_ - pos_ < n || text_.compare(pos_, n, lit) != 0) return false;
    pos_ += n;
    return true;
  }

  Json parse_value(int depth) {
    if (depth > kMaxDepth) fail("nesting deeper than 64 levels");
    skip_ws();
    const char c = peek();
    switch (c) {
      case '{': return parse_object(depth);
      case '[': return parse_array(depth);
      case '"': return Json::string(parse_string());
      case 't':
        if (!consume_literal("true")) fail("bad literal");
        return Json::boolean(true);
      case 'f':
        if (!consume_literal("false")) fail("bad literal");
        return Json::boolean(false);
      case 'n':
        if (!consume_literal("null")) fail("bad literal");
        return Json::null();
      default: return parse_number();
    }
  }

  Json parse_object(int depth) {
    expect('{');
    Json obj = Json::object();
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return obj;
    }
    for (;;) {
      skip_ws();
      if (peek() != '"') fail("expected member key string");
      std::string key = parse_string();
      skip_ws();
      expect(':');
      // RFC 8259 leaves duplicate-key semantics to the implementation; a
      // strict parser rejects them so the same document can never mean
      // first-wins here and last-wins in another consumer.
      if (obj.find(key) != nullptr)
        fail("duplicate object key '" + key + "'");
      obj.set(key, parse_value(depth + 1));
      skip_ws();
      const char sep = peek();
      ++pos_;
      if (sep == '}') return obj;
      if (sep != ',') fail("expected ',' or '}' in object");
    }
  }

  Json parse_array(int depth) {
    expect('[');
    Json arr = Json::array();
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return arr;
    }
    for (;;) {
      arr.push(parse_value(depth + 1));
      skip_ws();
      const char sep = peek();
      ++pos_;
      if (sep == ']') return arr;
      if (sep != ',') fail("expected ',' or ']' in array");
    }
  }

  unsigned parse_hex4() {
    unsigned value = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = peek();
      ++pos_;
      value <<= 4;
      if (c >= '0' && c <= '9')
        value |= static_cast<unsigned>(c - '0');
      else if (c >= 'a' && c <= 'f')
        value |= static_cast<unsigned>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F')
        value |= static_cast<unsigned>(c - 'A' + 10);
      else
        fail("bad \\u escape digit");
    }
    return value;
  }

  void append_utf8(std::string& out, unsigned cp) {
    if (cp < 0x80) {
      out += static_cast<char>(cp);
    } else if (cp < 0x800) {
      out += static_cast<char>(0xC0 | (cp >> 6));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    } else if (cp < 0x10000) {
      out += static_cast<char>(0xE0 | (cp >> 12));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    } else {
      out += static_cast<char>(0xF0 | (cp >> 18));
      out += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    for (;;) {
      if (pos_ >= end_) fail("unterminated string");
      const char c = text_[pos_];
      ++pos_;
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20)
        fail("raw control character in string");
      if (c != '\\') {
        out += c;
        continue;
      }
      const char esc = peek();
      ++pos_;
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          unsigned cp = parse_hex4();
          if (cp >= 0xD800 && cp <= 0xDBFF) {
            // High surrogate: must be followed by \uDC00-\uDFFF.
            if (pos_ + 1 >= end_ || text_[pos_] != '\\' ||
                text_[pos_ + 1] != 'u')
              fail("unpaired high surrogate");
            pos_ += 2;
            const unsigned lo = parse_hex4();
            if (lo < 0xDC00 || lo > 0xDFFF) fail("bad low surrogate");
            cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
          } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
            fail("unpaired low surrogate");
          }
          append_utf8(out, cp);
          break;
        }
        default: fail("bad escape character");
      }
    }
  }

  bool digit_at(std::size_t p) const {
    return p < end_ && text_[p] >= '0' && text_[p] <= '9';
  }

  Json parse_number() {
    // RFC 8259 grammar, enforced here rather than delegated to strtod:
    // int = "0" / digit1-9 *DIGIT (no leading zeros), frac/exp each require
    // at least one digit.
    const std::size_t start = pos_;
    bool integral = true;
    if (pos_ < end_ && text_[pos_] == '-') ++pos_;
    if (!digit_at(pos_)) fail("bad number");
    if (text_[pos_] == '0') {
      ++pos_;
      if (digit_at(pos_)) fail("leading zero in number");
    } else {
      while (digit_at(pos_)) ++pos_;
    }
    if (pos_ < end_ && text_[pos_] == '.') {
      integral = false;
      ++pos_;
      if (!digit_at(pos_)) fail("expected digit after decimal point");
      while (digit_at(pos_)) ++pos_;
    }
    if (pos_ < end_ && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      integral = false;
      ++pos_;
      if (pos_ < end_ && (text_[pos_] == '+' || text_[pos_] == '-'))
        ++pos_;
      if (!digit_at(pos_)) fail("expected digit in exponent");
      while (digit_at(pos_)) ++pos_;
    }
    const std::string token = text_.substr(start, pos_ - start);
    char* end = nullptr;
    if (integral) {
      errno = 0;
      const long long v = std::strtoll(token.c_str(), &end, 10);
      // On overflow strtoll still consumes the token and clamps to
      // LLONG_MIN/MAX with errno == ERANGE; that literal is not
      // representable as long long, so fall through to double.
      if (errno != ERANGE && end != nullptr && *end == '\0')
        return Json::integer(v);
    }
    end = nullptr;
    const double v = std::strtod(token.c_str(), &end);
    if (end == nullptr || *end != '\0') fail("bad number '" + token + "'");
    if (!std::isfinite(v)) fail("number overflows to non-finite");
    return Json::number(v);
  }

  const std::string& text_;
  std::size_t pos_;
  const std::size_t end_;
};

bool is_ws(char c) { return c == ' ' || c == '\t' || c == '\n' || c == '\r'; }
}  // namespace

Json Json::parse(const std::string& text) {
  return Parser(text, 0, text.size()).parse_whole(0);
}

bool Json::array_spans(const std::string& text, std::vector<Span>& spans) {
  spans.clear();
  const std::size_t n = text.size();
  std::size_t pos = 0;
  while (pos < n && is_ws(text[pos])) ++pos;
  if (pos == n || text[pos] != '[') return false;
  std::size_t element = ++pos;
  while (pos < n && is_ws(text[pos])) ++pos;
  if (pos < n && text[pos] == ']') {
    ++pos;  // an empty array: no element spans
  } else {
    std::size_t depth = 1;
    for (;;) {
      if (pos == n) return false;
      const char c = text[pos++];
      if (c == '"') {
        while (pos < n && text[pos] != '"') pos += text[pos] == '\\' ? 2 : 1;
        if (pos >= n) return false;
        ++pos;
      } else if (c == '[' || c == '{') {
        ++depth;
      } else if (c == ']' || c == '}') {
        if (--depth > 0) continue;
        if (c != ']') return false;
        spans.push_back({element, pos - 1});
        break;
      } else if (c == ',' && depth == 1) {
        spans.push_back({element, pos - 1});
        element = pos;
      }
    }
  }
  while (pos < n && is_ws(text[pos])) ++pos;
  return pos == n;
}

Json Json::parse_element(const std::string& text, Span span) {
  if (span.begin > span.end || span.end > text.size())
    throw std::out_of_range("Json::parse_element: span outside the text");
  return Parser(text, span.begin, span.end).parse_whole(1);
}

JsonWriter::JsonWriter(int indent, int depth, Sink sink)
    : indent_(indent),
      base_depth_(static_cast<std::size_t>(depth)),
      sink_(std::move(sink)) {}

void JsonWriter::flush() {
  if (!sink_ || out_.empty()) return;
  sink_(out_);
  out_.clear();
}

void JsonWriter::newline(std::size_t depth) {
  if (indent_ < 0) return;
  out_ += '\n';
  out_.append(static_cast<std::size_t>(indent_) * depth, ' ');
}

void JsonWriter::before_value() {
  if (open_.empty()) return;
  if (after_key_) {
    after_key_ = false;
    return;
  }
  if (open_.back()) out_ += ',';
  open_.back() = true;
  newline(depth());
}

void JsonWriter::escaped(std::string_view s) {
  out_ += '"';
  std::size_t run = 0;  // start of the bytes not yet copied
  for (std::size_t i = 0; i < s.size(); ++i) {
    const auto c = static_cast<unsigned char>(s[i]);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    out_.append(s, run, i - run);
    run = i + 1;
    switch (c) {
      case '"': out_ += "\\\""; break;
      case '\\': out_ += "\\\\"; break;
      case '\n': out_ += "\\n"; break;
      case '\t': out_ += "\\t"; break;
      case '\r': out_ += "\\r"; break;
      default: {
        constexpr char kHex[] = "0123456789abcdef";
        const char code[] = {'\\', 'u', '0', '0', kHex[c >> 4], kHex[c & 15]};
        out_.append(code, sizeof code);
      }
    }
  }
  out_.append(s, run, s.size() - run);
  out_ += '"';
}

JsonWriter& JsonWriter::begin_object() {
  before_value();
  out_ += '{';
  open_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::end_object() {
  const bool had_members = open_.back();
  open_.pop_back();
  if (had_members) newline(depth());
  out_ += '}';
  return *this;
}

JsonWriter& JsonWriter::begin_array() {
  before_value();
  out_ += '[';
  open_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::end_array() {
  const bool had_items = open_.back();
  open_.pop_back();
  if (had_items) newline(depth());
  out_ += ']';
  return *this;
}

JsonWriter& JsonWriter::key(std::string_view name) {
  if (open_.back()) out_ += ',';
  open_.back() = true;
  newline(depth());
  escaped(name);
  out_ += indent_ < 0 ? ":" : ": ";
  after_key_ = true;
  return *this;
}

JsonWriter& JsonWriter::string(std::string_view value) {
  before_value();
  escaped(value);
  return *this;
}

JsonWriter& JsonWriter::number(double value) {
  if (!std::isfinite(value)) throw_non_finite();
  before_value();
  char buf[40];
  char* end = format_g10_fast(value, buf);
  if (end == nullptr)
    end = buf + std::snprintf(buf, sizeof buf, "%.10g", value);
  out_.append(buf, static_cast<std::size_t>(end - buf));
  return *this;
}

JsonWriter& JsonWriter::number_or_null(double value) {
  return std::isfinite(value) ? number(value) : null();
}

JsonWriter& JsonWriter::integer(long long value) {
  before_value();
  char buf[24];
  const std::to_chars_result r = std::to_chars(buf, buf + sizeof buf, value);
  out_.append(buf, r.ptr);
  return *this;
}

JsonWriter& JsonWriter::boolean(bool value) {
  before_value();
  out_ += value ? "true" : "false";
  return *this;
}

JsonWriter& JsonWriter::null() {
  before_value();
  out_ += "null";
  return *this;
}

JsonWriter& JsonWriter::array(
    std::size_t count,
    const std::function<void(JsonWriter&, std::size_t)>& write_item) {
  if (!dumps_in_parallel(count)) {
    begin_array();
    for (std::size_t i = 0; i < count; ++i) write_item(*this, i);
    return end_array();
  }
  // Contiguous runs of items, one part each, written at the depth the
  // serial loop above writes them at. Every item carries the separator and
  // newline written before it there, so the bytes do not depend on where
  // the runs split.
  before_value();
  const std::size_t item_depth = depth() + 1;
  const std::size_t max_parts = parallel::thread_count() * 8;
  const std::size_t part_count = count < max_parts ? count : max_parts;
  const std::vector<std::string> parts = parallel::parallel_map<std::string>(
      part_count, [&](std::size_t p) {
        JsonWriter part(indent_, static_cast<int>(item_depth));
        const std::size_t end = (p + 1) * count / part_count;
        for (std::size_t i = p * count / part_count; i < end; ++i) {
          if (i > 0) part.out_ += ',';
          part.newline(item_depth);
          write_item(part, i);
        }
        return part.take();
      });
  out_ += '[';
  if (sink_) {
    flush();
    for (const std::string& part : parts) sink_(part);
  } else {
    std::size_t bytes = out_.size() + 2;  // the closing newline and ']'
    if (indent_ >= 0) bytes += static_cast<std::size_t>(indent_) * depth();
    for (const std::string& part : parts) bytes += part.size();
    out_.reserve(bytes);
    for (const std::string& part : parts) out_ += part;
  }
  newline(item_depth - 1);
  out_ += ']';
  return *this;
}

void Json::write_to(JsonWriter& out) const {
  switch (kind_) {
    case Kind::kString:
      out.string(str_);
      break;
    case Kind::kNumber:
      out.number(num_);
      break;
    case Kind::kInteger:
      out.integer(int_);
      break;
    case Kind::kBool:
      out.boolean(bool_);
      break;
    case Kind::kNull:
      out.null();
      break;
    case Kind::kObject:
      out.begin_object();
      for (const auto& [k, v] : members_) {
        out.key(k);
        v.write_to(out);
      }
      out.end_object();
      break;
    case Kind::kArray:
      out.array(items_.size(), [this](JsonWriter& w, std::size_t i) {
        items_[i].write_to(w);
      });
      break;
  }
}

std::string Json::dump(int indent) const {
  JsonWriter out(indent);
  write_to(out);
  return out.take();
}

}  // namespace dsmt::report
