#include "util/json.hpp"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>

namespace llmq::util {

namespace {

constexpr bool needs_escape(unsigned char c) {
  return c < 0x20 || c == '"' || c == '\\';
}

/// Whether any of the 8 bytes packed in `w` needs escaping. Each term is
/// the exact "some byte is zero / below n" bit trick, so there are no
/// false positives or negatives.
constexpr bool any_needs_escape(std::uint64_t w) {
  constexpr std::uint64_t kOnes = 0x0101010101010101ULL;
  constexpr std::uint64_t kHigh = 0x8080808080808080ULL;
  const std::uint64_t quote = w ^ (kOnes * '"');
  const std::uint64_t backslash = w ^ (kOnes * '\\');
  return (((w - kOnes * 0x20) & ~w) | ((quote - kOnes) & ~quote) |
          ((backslash - kOnes) & ~backslash)) &
         kHigh;
}

/// Append `s` JSON-escaped to `out`. Runs of bytes that need no escape are
/// copied with one append each, so no temporary string is built, and
/// clean stretches are skipped eight bytes per test.
void append_escaped(std::string& out, std::string_view s) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::size_t run = 0;  // start of the pending unescaped run
  for (std::size_t i = 0; i < s.size();) {
    if (i + 8 <= s.size()) {
      std::uint64_t w = 0;
      std::memcpy(&w, s.data() + i, 8);
      if (!any_needs_escape(w)) {
        i += 8;
        continue;
      }
    }
    const auto c = static_cast<unsigned char>(s[i++]);
    if (!needs_escape(c)) continue;
    out.append(s.data() + run, i - 1 - run);
    run = i;
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      default: {
        const char u[] = {'\\', 'u', '0', '0', kHex[c >> 4], kHex[c & 0xF]};
        out.append(u, sizeof u);
      }
    }
  }
  out.append(s.data() + run, s.size() - run);
}

}  // namespace

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 8);
  append_escaped(out, s);
  return out;
}

void JsonWriter::maybe_comma() {
  if (after_key_) {
    after_key_ = false;
    return;
  }
  if (!needs_comma_.empty()) {
    if (needs_comma_.back()) out_ += ',';
    needs_comma_.back() = true;
  }
}

JsonWriter& JsonWriter::begin_object() {
  maybe_comma();
  out_ += '{';
  needs_comma_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::end_object() {
  out_ += '}';
  needs_comma_.pop_back();
  return *this;
}

JsonWriter& JsonWriter::begin_array() {
  maybe_comma();
  out_ += '[';
  needs_comma_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::end_array() {
  out_ += ']';
  needs_comma_.pop_back();
  return *this;
}

JsonWriter& JsonWriter::key(std::string_view k) {
  maybe_comma();
  out_ += '"';
  append_escaped(out_, k);
  out_ += "\":";
  after_key_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(std::string_view v) {
  maybe_comma();
  out_ += '"';
  append_escaped(out_, v);
  out_ += '"';
  return *this;
}

JsonWriter& JsonWriter::value(std::int64_t v) {
  maybe_comma();
  out_ += std::to_string(v);
  return *this;
}

JsonWriter& JsonWriter::value(double v) {
  maybe_comma();
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  out_ += buf;
  return *this;
}

JsonWriter& JsonWriter::value(bool v) {
  maybe_comma();
  out_ += v ? "true" : "false";
  return *this;
}

JsonWriter& JsonWriter::null() {
  maybe_comma();
  out_ += "null";
  return *this;
}

JsonWriter& JsonWriter::kv(std::string_view k, std::string_view v) {
  key(k);
  return value(v);
}

// ---- Reader. ----

bool JsonValue::as_bool() const {
  if (type_ != Type::Bool) throw std::logic_error("JsonValue: not a bool");
  return bool_;
}

double JsonValue::as_number() const {
  if (type_ != Type::Number) throw std::logic_error("JsonValue: not a number");
  return num_;
}

const std::string& JsonValue::as_string() const {
  if (type_ != Type::String) throw std::logic_error("JsonValue: not a string");
  return str_;
}

const std::vector<JsonValue>& JsonValue::as_array() const {
  if (type_ != Type::Array) throw std::logic_error("JsonValue: not an array");
  return items_;
}

const JsonValue::Members& JsonValue::as_object() const {
  if (type_ != Type::Object) throw std::logic_error("JsonValue: not an object");
  return members_;
}

const JsonValue* JsonValue::find(const std::string& key) const {
  if (type_ != Type::Object) return nullptr;
  for (const auto& [k, v] : members_)
    if (k == key) return &v;
  return nullptr;
}

JsonValue JsonValue::make_null() { return JsonValue(); }

JsonValue JsonValue::make_bool(bool b) {
  JsonValue v;
  v.type_ = Type::Bool;
  v.bool_ = b;
  return v;
}

JsonValue JsonValue::make_number(double d) {
  JsonValue v;
  v.type_ = Type::Number;
  v.num_ = d;
  return v;
}

JsonValue JsonValue::make_string(std::string s) {
  JsonValue v;
  v.type_ = Type::String;
  v.str_ = std::move(s);
  return v;
}

JsonValue JsonValue::make_array(std::vector<JsonValue> items) {
  JsonValue v;
  v.type_ = Type::Array;
  v.items_ = std::move(items);
  return v;
}

JsonValue JsonValue::make_object(Members members) {
  JsonValue v;
  v.type_ = Type::Object;
  v.members_ = std::move(members);
  return v;
}

namespace {

/// Recursive-descent parser over a string_view cursor. Failure is a
/// nullopt bubbling up — no exceptions, no error positions; the schema
/// tests only need parse-or-not plus the parsed tree.
class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  std::optional<JsonValue> parse() {
    auto v = parse_value();
    if (!v) return std::nullopt;
    skip_ws();
    if (pos_ != text_.size()) return std::nullopt;  // trailing garbage
    return v;
  }

 private:
  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r'))
      ++pos_;
  }

  bool eat(char c) {
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  std::optional<JsonValue> parse_value() {
    if (++depth_ > kMaxDepth) return std::nullopt;
    struct DepthGuard {
      std::size_t& d;
      ~DepthGuard() { --d; }
    } guard{depth_};
    skip_ws();
    if (pos_ >= text_.size()) return std::nullopt;
    switch (text_[pos_]) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"': {
        auto s = parse_string();
        if (!s) return std::nullopt;
        return JsonValue::make_string(std::move(*s));
      }
      case 't':
        return literal("true") ? std::optional(JsonValue::make_bool(true))
                               : std::nullopt;
      case 'f':
        return literal("false") ? std::optional(JsonValue::make_bool(false))
                                : std::nullopt;
      case 'n':
        return literal("null") ? std::optional(JsonValue::make_null())
                               : std::nullopt;
      default: return parse_number();
    }
  }

  std::optional<JsonValue> parse_object() {
    ++pos_;  // '{'
    JsonValue::Members members;
    if (eat('}')) return JsonValue::make_object(std::move(members));
    do {
      skip_ws();
      auto key = parse_string();
      if (!key || !eat(':')) return std::nullopt;
      auto val = parse_value();
      if (!val) return std::nullopt;
      members.emplace_back(std::move(*key), std::move(*val));
    } while (eat(','));
    if (!eat('}')) return std::nullopt;
    return JsonValue::make_object(std::move(members));
  }

  std::optional<JsonValue> parse_array() {
    ++pos_;  // '['
    std::vector<JsonValue> items;
    if (eat(']')) return JsonValue::make_array(std::move(items));
    do {
      auto val = parse_value();
      if (!val) return std::nullopt;
      items.push_back(std::move(*val));
    } while (eat(','));
    if (!eat(']')) return std::nullopt;
    return JsonValue::make_array(std::move(items));
  }

  std::optional<std::string> parse_string() {
    if (pos_ >= text_.size() || text_[pos_] != '"') return std::nullopt;
    ++pos_;
    std::string out;
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) return std::nullopt;
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) return std::nullopt;
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f')
              code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F')
              code |= static_cast<unsigned>(h - 'A' + 10);
            else
              return std::nullopt;
          }
          // The writer only emits \u00XX for control bytes; decode the
          // BMP code point as UTF-8 so round-trips are lossless.
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default: return std::nullopt;
      }
    }
    return std::nullopt;  // unterminated
  }

  std::optional<JsonValue> parse_number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    const auto digits = [&] {
      std::size_t n = 0;
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
        ++pos_;
        ++n;
      }
      return n;
    };
    if (digits() == 0) return std::nullopt;
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      if (digits() == 0) return std::nullopt;
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-'))
        ++pos_;
      if (digits() == 0) return std::nullopt;
    }
    return JsonValue::make_number(
        std::strtod(std::string(text_.substr(start, pos_ - start)).c_str(),
                    nullptr));
  }

  static constexpr std::size_t kMaxDepth = 256;
  std::string_view text_;
  std::size_t pos_ = 0;
  std::size_t depth_ = 0;
};

}  // namespace

std::optional<JsonValue> json_parse(std::string_view text) {
  return JsonParser(text).parse();
}

}  // namespace llmq::util
