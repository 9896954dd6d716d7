// Minimal strict JSON parser for the engine's wire formats (plan and
// shard-report files, docs/WIRE_FORMAT.md).
//
// Parsing only — serialization stays with the types that own the data
// (InjectionPlan::to_json, ShardReport::to_json), which emit canonical
// output directly. The parser is strict where the wire format needs
// validation to be trustworthy: a single top-level value with no trailing
// garbage, no duplicate object keys, a bounded nesting depth, and every
// error reported with line/column context so a malformed shard file names
// the byte that broke it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace ep {

/// Malformed JSON text or a type-mismatched access. `what()` carries the
/// position ("line 3, column 17: ...") when the error came from parsing.
class JsonError : public std::runtime_error {
 public:
  explicit JsonError(const std::string& msg)
      : std::runtime_error(msg), line_(0), column_(0) {}
  JsonError(const std::string& msg, std::size_t line, std::size_t column)
      : std::runtime_error("line " + std::to_string(line) + ", column " +
                           std::to_string(column) + ": " + msg),
        line_(line),
        column_(column) {}

  [[nodiscard]] std::size_t line() const { return line_; }
  [[nodiscard]] std::size_t column() const { return column_; }

 private:
  std::size_t line_;
  std::size_t column_;
};

/// One parsed JSON value. Objects keep their members in document order
/// (the wire-format docs show canonical serializer output, and order-
/// preserving members make "what did the file actually say" debuggable).
class JsonValue {
 public:
  enum class Type { null, boolean, number, string, array, object };

  using Members = std::vector<std::pair<std::string, JsonValue>>;

  JsonValue() = default;  // null

  [[nodiscard]] Type type() const { return type_; }
  [[nodiscard]] std::string_view type_name() const;

  [[nodiscard]] bool is_null() const { return type_ == Type::null; }
  [[nodiscard]] bool is_bool() const { return type_ == Type::boolean; }
  [[nodiscard]] bool is_number() const { return type_ == Type::number; }
  [[nodiscard]] bool is_string() const { return type_ == Type::string; }
  [[nodiscard]] bool is_array() const { return type_ == Type::array; }
  [[nodiscard]] bool is_object() const { return type_ == Type::object; }

  /// Typed accessors throw JsonError naming the actual type on mismatch.
  [[nodiscard]] bool as_bool() const;
  [[nodiscard]] double as_number() const;
  /// The number as an integer; throws if it has a fractional part or does
  /// not fit (ids, counts, and indices are integral on the wire). An
  /// integral literal is read exactly — no rounding through a double.
  [[nodiscard]] long long as_int() const;
  /// The number as an unsigned 64-bit integer, exactly: seeds and
  /// perturbation params use the whole range. Throws on a negative,
  /// fractional, or oversized number.
  [[nodiscard]] std::uint64_t as_u64() const;
  [[nodiscard]] const std::string& as_string() const;
  [[nodiscard]] const std::vector<JsonValue>& items() const;  // array
  [[nodiscard]] const Members& members() const;               // object

  /// Object member lookup: nullptr when absent (or when not an object).
  [[nodiscard]] const JsonValue* find(std::string_view key) const;
  /// Object member lookup that throws JsonError naming the missing key.
  [[nodiscard]] const JsonValue& at(std::string_view key) const;

  // --- construction (used by the parser; handy for tests) -----------------
  static JsonValue make_null() { return JsonValue(); }
  static JsonValue make_bool(bool b);
  static JsonValue make_number(double n);
  /// An integral literal, kept exactly: `magnitude` with a sign.
  static JsonValue make_integer(std::uint64_t magnitude, bool negative);
  static JsonValue make_string(std::string s);
  static JsonValue make_array(std::vector<JsonValue> items);
  static JsonValue make_object(Members members);

 private:
  Type type_ = Type::null;
  bool bool_ = false;
  double number_ = 0.0;
  bool exact_ = false;  // an integral literal: magnitude_ is exact
  bool negative_ = false;
  std::uint64_t magnitude_ = 0;
  std::string string_;
  std::vector<JsonValue> items_;
  Members members_;
};

/// Parse exactly one JSON document. Throws JsonError (with line/column)
/// on malformed input, trailing garbage, duplicate object keys, or
/// nesting deeper than an internal sanity bound.
JsonValue json_parse(std::string_view text);

}  // namespace ep
