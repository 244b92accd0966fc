// Minimal deterministic JSON emitter and parser.
//
// Bench results and service metrics are exported as machine-readable JSON.
// Determinism is the point: object members render in insertion order,
// doubles render via std::to_chars (shortest round-trip form, no locale),
// so byte-identical inputs always produce byte-identical files and a diff
// of two BENCH_*.json runs shows only genuine changes.
//
// parse() is the inverse: the telemetry tier round-trips its Chrome-trace
// exports through it (tests and the tier1 --obs smoke stage validate trace
// files this way).  Numbers parse via std::from_chars, so dump(parse(x))
// reproduces the emitter's shortest-round-trip doubles exactly.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace netpart {

class JsonValue {
 public:
  /// Null by default.
  JsonValue() = default;
  JsonValue(bool v);                 // NOLINT(google-explicit-constructor)
  JsonValue(int v);                  // NOLINT(google-explicit-constructor)
  JsonValue(std::int64_t v);         // NOLINT(google-explicit-constructor)
  JsonValue(std::uint64_t v);        // NOLINT(google-explicit-constructor)
  JsonValue(double v);               // NOLINT(google-explicit-constructor)
  JsonValue(const char* v);          // NOLINT(google-explicit-constructor)
  JsonValue(std::string v);          // NOLINT(google-explicit-constructor)

  static JsonValue object();
  static JsonValue array();

  /// Parse a complete JSON document (trailing whitespace allowed, nothing
  /// else).  Throws ConfigError with a byte offset on malformed input.
  static JsonValue parse(std::string_view text);

  /// Add/replace an object member (insertion order preserved; setting an
  /// existing key overwrites in place).  Throws LogicError on non-objects.
  JsonValue& set(const std::string& key, JsonValue value);

  /// Append an array element.  Throws LogicError on non-arrays.
  JsonValue& push(JsonValue value);

  /// Serialise.  indent = 0 is compact; > 0 pretty-prints with that many
  /// spaces per level and a trailing newline at top level.
  std::string dump(int indent = 0) const;

  // --- inspection (for parsed documents) ------------------------------
  bool is_null() const { return type_ == Type::Null; }
  bool is_bool() const { return type_ == Type::Bool; }
  bool is_number() const {
    return type_ == Type::Int || type_ == Type::Double;
  }
  bool is_string() const { return type_ == Type::String; }
  bool is_array() const { return type_ == Type::Array; }
  bool is_object() const { return type_ == Type::Object; }

  /// Object member lookup; nullptr when absent.  Throws LogicError on
  /// non-objects.
  const JsonValue* find(const std::string& key) const;

  /// Array element count / access.  Throws LogicError on non-arrays.
  std::size_t size() const;
  const JsonValue& at(std::size_t index) const;

  /// Typed extraction; throws LogicError on type mismatch.  as_double()
  /// accepts integers.
  std::int64_t as_int() const;
  double as_double() const;
  const std::string& as_string() const;

 private:
  enum class Type { Null, Bool, Int, Double, String, Array, Object };

  void write(std::string& out, int indent, int depth) const;
  static void write_escaped(std::string& out, const std::string& s);

  Type type_ = Type::Null;
  bool bool_ = false;
  std::int64_t int_ = 0;
  double double_ = 0.0;
  std::string string_;
  std::vector<JsonValue> items_;
  std::vector<std::pair<std::string, JsonValue>> members_;
};

}  // namespace netpart
