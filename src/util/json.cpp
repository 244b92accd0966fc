#include "util/json.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <limits>

#include "util/error.hpp"

namespace netpart {

JsonValue::JsonValue(bool v) : type_(Type::Bool), bool_(v) {}
JsonValue::JsonValue(int v)
    : type_(Type::Int), int_(static_cast<std::int64_t>(v)) {}
JsonValue::JsonValue(std::int64_t v) : type_(Type::Int), int_(v) {}
JsonValue::JsonValue(std::uint64_t v) : type_(Type::Int) {
  NP_REQUIRE(v <= static_cast<std::uint64_t>(
                      std::numeric_limits<std::int64_t>::max()),
             "JSON integer out of range");
  int_ = static_cast<std::int64_t>(v);
}
JsonValue::JsonValue(double v) : type_(Type::Double), double_(v) {}
JsonValue::JsonValue(const char* v) : type_(Type::String), string_(v) {}
JsonValue::JsonValue(std::string v)
    : type_(Type::String), string_(std::move(v)) {}

JsonValue JsonValue::object() {
  JsonValue v;
  v.type_ = Type::Object;
  return v;
}

JsonValue JsonValue::array() {
  JsonValue v;
  v.type_ = Type::Array;
  return v;
}

JsonValue& JsonValue::set(const std::string& key, JsonValue value) {
  NP_ASSERT(type_ == Type::Object);
  for (auto& [k, v] : members_) {
    if (k == key) {
      v = std::move(value);
      return *this;
    }
  }
  members_.emplace_back(key, std::move(value));
  return *this;
}

JsonValue& JsonValue::push(JsonValue value) {
  NP_ASSERT(type_ == Type::Array);
  items_.push_back(std::move(value));
  return *this;
}

void JsonValue::write_escaped(std::string& out, const std::string& s) {
  out += '"';
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

void JsonValue::write(std::string& out, int indent, int depth) const {
  const auto newline_pad = [&](int d) {
    if (indent <= 0) return;
    out += '\n';
    out.append(static_cast<std::size_t>(indent * d), ' ');
  };
  switch (type_) {
    case Type::Null:
      out += "null";
      break;
    case Type::Bool:
      out += bool_ ? "true" : "false";
      break;
    case Type::Int: {
      char buf[24];
      const auto [p, ec] = std::to_chars(buf, buf + sizeof(buf), int_);
      NP_ASSERT(ec == std::errc());
      out.append(buf, p);
      break;
    }
    case Type::Double: {
      // JSON has no NaN/Inf; render them as null like most emitters.
      if (!std::isfinite(double_)) {
        out += "null";
        break;
      }
      char buf[32];
      const auto [p, ec] = std::to_chars(buf, buf + sizeof(buf), double_);
      NP_ASSERT(ec == std::errc());
      out.append(buf, p);
      break;
    }
    case Type::String:
      write_escaped(out, string_);
      break;
    case Type::Array: {
      if (items_.empty()) {
        out += "[]";
        break;
      }
      out += '[';
      for (std::size_t i = 0; i < items_.size(); ++i) {
        if (i > 0) out += ',';
        newline_pad(depth + 1);
        items_[i].write(out, indent, depth + 1);
      }
      newline_pad(depth);
      out += ']';
      break;
    }
    case Type::Object: {
      if (members_.empty()) {
        out += "{}";
        break;
      }
      out += '{';
      for (std::size_t i = 0; i < members_.size(); ++i) {
        if (i > 0) out += ',';
        newline_pad(depth + 1);
        write_escaped(out, members_[i].first);
        out += indent > 0 ? ": " : ":";
        members_[i].second.write(out, indent, depth + 1);
      }
      newline_pad(depth);
      out += '}';
      break;
    }
  }
}

std::string JsonValue::dump(int indent) const {
  std::string out;
  write(out, indent, 0);
  if (indent > 0) out += '\n';
  return out;
}

const JsonValue* JsonValue::find(const std::string& key) const {
  NP_ASSERT(type_ == Type::Object);
  for (const auto& [k, v] : members_) {
    if (k == key) return &v;
  }
  return nullptr;
}

std::size_t JsonValue::size() const {
  NP_ASSERT(type_ == Type::Array);
  return items_.size();
}

const JsonValue& JsonValue::at(std::size_t index) const {
  NP_ASSERT(type_ == Type::Array);
  NP_ASSERT(index < items_.size());
  return items_[index];
}

std::int64_t JsonValue::as_int() const {
  NP_ASSERT(type_ == Type::Int);
  return int_;
}

double JsonValue::as_double() const {
  NP_ASSERT(type_ == Type::Int || type_ == Type::Double);
  return type_ == Type::Int ? static_cast<double>(int_) : double_;
}

const std::string& JsonValue::as_string() const {
  NP_ASSERT(type_ == Type::String);
  return string_;
}

namespace {

/// Recursive-descent JSON parser over a string_view; tracks the byte
/// offset for error messages.
class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  JsonValue parse_document() {
    JsonValue value = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters");
    return value;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw ConfigError("json parse error at offset " + std::to_string(pos_) +
                      ": " + what);
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
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

  bool consume_literal(std::string_view literal) {
    if (text_.substr(pos_, literal.size()) != literal) return false;
    pos_ += literal.size();
    return true;
  }

  JsonValue parse_value() {
    skip_ws();
    switch (peek()) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"': return JsonValue(parse_string());
      case 't':
        if (!consume_literal("true")) fail("bad literal");
        return JsonValue(true);
      case 'f':
        if (!consume_literal("false")) fail("bad literal");
        return JsonValue(false);
      case 'n':
        if (!consume_literal("null")) fail("bad literal");
        return JsonValue();
      default: return parse_number();
    }
  }

  JsonValue parse_object() {
    expect('{');
    JsonValue out = JsonValue::object();
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return out;
    }
    for (;;) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      out.set(key, parse_value());
      skip_ws();
      const char c = peek();
      ++pos_;
      if (c == '}') return out;
      if (c != ',') fail("expected ',' or '}'");
    }
  }

  JsonValue parse_array() {
    expect('[');
    JsonValue out = JsonValue::array();
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return out;
    }
    for (;;) {
      out.push(parse_value());
      skip_ws();
      const char c = peek();
      ++pos_;
      if (c == ']') return out;
      if (c != ',') fail("expected ',' or ']'");
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    for (;;) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char esc = text_[pos_++];
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
          if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f')
              code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F')
              code |= static_cast<unsigned>(h - 'A' + 10);
            else fail("bad \\u escape");
          }
          // The emitter only produces \u escapes for control characters;
          // encode the general case as UTF-8 anyway.
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
        default: fail("bad escape");
      }
    }
  }

  JsonValue parse_number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    bool is_double = false;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c >= '0' && c <= '9') {
        ++pos_;
      } else if (c == '.' || c == 'e' || c == 'E' || c == '+' || c == '-') {
        is_double = true;
        ++pos_;
      } else {
        break;
      }
    }
    if (pos_ == start) fail("expected a value");
    const char* first = text_.data() + start;
    const char* last = text_.data() + pos_;
    if (!is_double) {
      std::int64_t v = 0;
      const auto [p, ec] = std::from_chars(first, last, v);
      if (ec == std::errc() && p == last) return JsonValue(v);
      // Fall through: out-of-range integers degrade to double.
    }
    double v = 0.0;
    const auto [p, ec] = std::from_chars(first, last, v);
    if (ec != std::errc() || p != last) fail("bad number");
    return JsonValue(v);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

JsonValue JsonValue::parse(std::string_view text) {
  return JsonParser(text).parse_document();
}

}  // namespace netpart
