#pragma once
// Minimal JSON document model for the machine-readable bench reports
// (BENCH_*.json) and the bench_compare tool that diffs them.
//
// Why not a third-party library: the container has none, and the reports
// have two requirements off-the-shelf models tend to violate anyway —
// deterministic serialization (two same-seed runs must produce
// byte-identical virtual-time sections, so objects keep *insertion* order
// and doubles print via std::to_chars shortest round-trip, never
// locale-dependent iostreams) and exact integers (event counts and
// nanosecond totals stay std::int64_t end to end; a double-only model
// would corrupt them past 2^53).
//
// The model is a tagged variant: null, bool, int64, double, string, array,
// object. Objects are vectors of (key, value) pairs — set() overwrites an
// existing key in place, find() is a linear scan (report objects are
// small). parse() is a strict recursive-descent RFC 8259 parser; numbers
// without '.', 'e' or 'E' that fit int64 parse as integers, so a
// dump() -> parse() -> dump() round trip is byte-identical.

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

namespace util::json {

class Value;

using Array = std::vector<Value>;
using Member = std::pair<std::string, Value>;
using Object = std::vector<Member>;

class Value {
 public:
  enum class Type { kNull, kBool, kInt, kDouble, kString, kArray, kObject };

  Value() : v_(nullptr) {}
  Value(std::nullptr_t) : v_(nullptr) {}
  Value(bool b) : v_(b) {}
  Value(int i) : v_(static_cast<std::int64_t>(i)) {}
  Value(std::int64_t i) : v_(i) {}
  Value(std::uint64_t i) : v_(static_cast<std::int64_t>(i)) {}
  Value(double d) : v_(d) {}
  Value(std::string s) : v_(std::move(s)) {}
  Value(std::string_view s) : v_(std::string(s)) {}
  Value(const char* s) : v_(std::string(s)) {}
  Value(Array a) : v_(std::move(a)) {}
  Value(Object o) : v_(std::move(o)) {}

  static Value object() { return Value(Object{}); }
  static Value array() { return Value(Array{}); }

  Type type() const { return static_cast<Type>(v_.index()); }
  bool is_null() const { return type() == Type::kNull; }
  bool is_bool() const { return type() == Type::kBool; }
  bool is_int() const { return type() == Type::kInt; }
  bool is_double() const { return type() == Type::kDouble; }
  bool is_number() const { return is_int() || is_double(); }
  bool is_string() const { return type() == Type::kString; }
  bool is_array() const { return type() == Type::kArray; }
  bool is_object() const { return type() == Type::kObject; }

  bool as_bool() const { return std::get<bool>(v_); }
  std::int64_t as_int() const { return std::get<std::int64_t>(v_); }
  /// Numeric value as double (works for both kInt and kDouble).
  double as_double() const {
    return is_int() ? static_cast<double>(as_int()) : std::get<double>(v_);
  }
  const std::string& as_string() const { return std::get<std::string>(v_); }
  const Array& items() const { return std::get<Array>(v_); }
  Array& items() { return std::get<Array>(v_); }
  const Object& members() const { return std::get<Object>(v_); }
  Object& members() { return std::get<Object>(v_); }

  /// Object: appends (key, value), overwriting in place when `key` exists.
  /// Returns *this so report builders can chain.
  Value& set(std::string_view key, Value value);
  /// Object: value under `key`, nullptr when absent (or not an object).
  const Value* find(std::string_view key) const;

  /// Array: appends an element, constructed in place (moving a temporary
  /// null Value in reads as uninitialized to GCC 12's flow analysis).
  template <typename T>
  void push_back(T&& value) {
    items().emplace_back(std::forward<T>(value));
  }

  std::size_t size() const;

  /// Deterministic serialization. indent > 0 pretty-prints with that many
  /// spaces per level; indent == 0 emits the compact one-line form.
  std::string dump(int indent = 2) const;

 private:
  std::variant<std::nullptr_t, bool, std::int64_t, double, std::string, Array,
               Object>
      v_;
};

struct ParseResult {
  bool ok = false;
  Value value;
  /// "offset N: message" when !ok.
  std::string error;
};

/// Strict RFC 8259 parse of a complete document (trailing garbage is an
/// error). Duplicate object keys keep the last value, matching set().
ParseResult parse(std::string_view text);

/// JSON string escaping of `s` including the surrounding quotes.
std::string escape_string(std::string_view s);

}  // namespace util::json
