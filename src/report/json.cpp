#include "report/json.h"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
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
  if (!std::isfinite(value))
    throw_json_error("report/json", "non-finite number in payload "
                     "(use number_or_null for diagnostic fields)",
                     core::StatusCode::kNonFinite);
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
void escape_into(std::string& out, const std::string& s) {
  out += '"';
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

void newline_indent(std::string& out, int indent, int depth) {
  if (indent < 0) return;
  out += '\n';
  out.append(static_cast<std::size_t>(indent) * depth, ' ');
}

/// Arrays with at least this many items dump their items across the pool.
/// Smaller ones, such as a reply's diag chain, dump serially: a fan-out's
/// fixed cost of tens of microseconds would dominate their dump.
constexpr std::size_t kParallelDumpItems = 256;

/// True when an array of `items` should dump across the pool: it is large
/// enough, more than one thread is configured, and no parallel region is
/// active (a nested array dumps serially inside its caller's block).
bool dumps_in_parallel(std::size_t items) {
  return items >= kParallelDumpItems && !parallel::on_worker_thread() &&
         !parallel::in_parallel_region() && parallel::thread_count() > 1;
}

/// Recursive-descent JSON parser. Strict: one document, no trailing bytes,
/// nesting bounded so a deep adversarial input cannot blow the stack.
class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  Json parse_document() {
    Json value = parse_value(0);
    skip_ws();
    if (pos_ != text_.size()) fail("trailing bytes after document");
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
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == ' ' || c == '\t' || c == '\n' || c == '\r')
        ++pos_;
      else
        break;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(const char* lit) {
    std::size_t n = 0;
    while (lit[n] != '\0') ++n;
    if (text_.compare(pos_, n, lit) != 0) return false;
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
      if (pos_ >= text_.size()) fail("unterminated string");
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
            if (pos_ + 1 >= text_.size() || text_[pos_] != '\\' ||
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
    return p < text_.size() && text_[p] >= '0' && text_[p] <= '9';
  }

  Json parse_number() {
    // RFC 8259 grammar, enforced here rather than delegated to strtod:
    // int = "0" / digit1-9 *DIGIT (no leading zeros), frac/exp each require
    // at least one digit.
    const std::size_t start = pos_;
    bool integral = true;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    if (!digit_at(pos_)) fail("bad number");
    if (text_[pos_] == '0') {
      ++pos_;
      if (digit_at(pos_)) fail("leading zero in number");
    } else {
      while (digit_at(pos_)) ++pos_;
    }
    if (pos_ < text_.size() && text_[pos_] == '.') {
      integral = false;
      ++pos_;
      if (!digit_at(pos_)) fail("expected digit after decimal point");
      while (digit_at(pos_)) ++pos_;
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      integral = false;
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-'))
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
  std::size_t pos_ = 0;
};
}  // namespace

Json Json::parse(const std::string& text) {
  return Parser(text).parse_document();
}

void Json::dump_to(std::string& out, int indent, int depth) const {
  switch (kind_) {
    case Kind::kString:
      escape_into(out, str_);
      break;
    case Kind::kNumber: {
      // number() rejects non-finite at construction; this is the backstop
      // for default-constructed corruption, honoring the same policy.
      if (!std::isfinite(num_))
        throw_json_error("report/json", "non-finite number reached dump",
                         core::StatusCode::kNonFinite);
      char buf[40];
      std::snprintf(buf, sizeof buf, "%.10g", num_);
      out += buf;
      break;
    }
    case Kind::kInteger: {
      char buf[32];
      std::snprintf(buf, sizeof buf, "%lld", int_);
      out += buf;
      break;
    }
    case Kind::kBool:
      out += bool_ ? "true" : "false";
      break;
    case Kind::kNull:
      out += "null";
      break;
    case Kind::kObject: {
      if (members_.empty()) {
        out += "{}";
        break;
      }
      out += '{';
      bool first = true;
      for (const auto& [k, v] : members_) {
        if (!first) out += ',';
        first = false;
        newline_indent(out, indent, depth + 1);
        escape_into(out, k);
        out += indent < 0 ? ":" : ": ";
        v.dump_to(out, indent, depth + 1);
      }
      newline_indent(out, indent, depth);
      out += '}';
      break;
    }
    case Kind::kArray: {
      if (items_.empty()) {
        out += "[]";
        break;
      }
      out += '[';
      if (dumps_in_parallel(items_.size())) {
        // One part per item, written by the same writer at the depth the
        // serial loop below uses, joined in index order: the same bytes.
        const std::vector<std::string> parts =
            parallel::parallel_map<std::string>(
                items_.size(), [&](std::size_t i) {
                  std::string part;
                  items_[i].dump_to(part, indent, depth + 1);
                  return part;
                });
        std::size_t bytes = out.size();
        for (const std::string& part : parts) bytes += part.size();
        const std::size_t margin =
            indent < 0 ? 0 : static_cast<std::size_t>(indent) * (depth + 1);
        out.reserve(bytes + parts.size() * (2 + margin) + margin);
        for (std::size_t i = 0; i < parts.size(); ++i) {
          if (i > 0) out += ',';
          newline_indent(out, indent, depth + 1);
          out += parts[i];
        }
      } else {
        bool first = true;
        for (const auto& v : items_) {
          if (!first) out += ',';
          first = false;
          newline_indent(out, indent, depth + 1);
          v.dump_to(out, indent, depth + 1);
        }
      }
      newline_indent(out, indent, depth);
      out += ']';
      break;
    }
  }
}

std::string Json::dump(int indent) const {
  std::string out;
  dump_to(out, indent, 0);
  return out;
}

}  // namespace dsmt::report
