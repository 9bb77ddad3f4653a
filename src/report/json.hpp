// Minimal JSON value type: build, serialize, and parse without any external
// dependency.  Used by the bench harness to emit machine-readable results
// and by tools/shapecheck + tools/benchdiff to load them back, so writer and
// parser must round-trip each other's output exactly.
//
// Scope is deliberately small: UTF-8 pass-through strings, doubles for all
// numbers (plus an integer fast-path in formatting), objects that preserve
// insertion order so emitted files are deterministic and diffable.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace emusim::report {

class Json {
 public:
  enum class Type { null, boolean, number, string, array, object };

  Json() = default;  // null

  static Json boolean(bool b);
  static Json number(double v);
  static Json string(std::string s);
  static Json array();
  static Json object();

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::null; }
  bool is_bool() const { return type_ == Type::boolean; }
  bool is_number() const { return type_ == Type::number; }
  bool is_string() const { return type_ == Type::string; }
  bool is_array() const { return type_ == Type::array; }
  bool is_object() const { return type_ == Type::object; }

  bool as_bool() const { return bool_; }
  double as_number() const { return number_; }
  const std::string& as_string() const { return string_; }
  const std::vector<Json>& items() const { return items_; }
  const std::vector<std::pair<std::string, Json>>& members() const {
    return members_;
  }

  /// Array append (no-op unless this is an array).
  void push_back(Json v);
  /// Object insert-or-replace; preserves first-insertion order.
  void set(const std::string& key, Json v);
  /// Object lookup; nullptr when absent (or not an object).
  const Json* find(const std::string& key) const;

  // --- typed object accessors with defaults --------------------------------
  double get_number(const std::string& key, double fallback = 0.0) const;
  std::string get_string(const std::string& key,
                         const std::string& fallback = "") const;
  bool get_bool(const std::string& key, bool fallback = false) const;

  /// Serialize.  indent > 0 pretty-prints; 0 emits compact one-line JSON.
  std::string dump(int indent = 2) const;

  /// Parse `text` into `*out`.  Returns false and fills `*err` (with a byte
  /// offset) on malformed input.  Trailing non-whitespace, a number outside
  /// the JSON grammar or beyond double range (NaN, Infinity, hex, a leading
  /// '+', 1e400), a duplicate object key, and nesting deeper than 256
  /// levels are all errors.
  static bool parse(const std::string& text, Json* out, std::string* err);

 private:
  Type type_ = Type::null;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<Json> items_;                             // array
  std::vector<std::pair<std::string, Json>> members_;   // object

  void dump_to(std::string& out, int indent, int depth) const;
};

/// Escape `s` for embedding inside a JSON string literal (no quotes added).
std::string json_escape(const std::string& s);

/// Format a double the way the writer does: integers without a decimal
/// point, everything else with enough digits to survive a round-trip check
/// at benchdiff tolerances.
std::string json_number(double v);

}  // namespace emusim::report
