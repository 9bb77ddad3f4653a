#include "report/json.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace emusim::report {

Json Json::boolean(bool b) {
  Json j;
  j.type_ = Type::boolean;
  j.bool_ = b;
  return j;
}

Json Json::number(double v) {
  Json j;
  j.type_ = Type::number;
  j.number_ = v;
  return j;
}

Json Json::string(std::string s) {
  Json j;
  j.type_ = Type::string;
  j.string_ = std::move(s);
  return j;
}

Json Json::array() {
  Json j;
  j.type_ = Type::array;
  return j;
}

Json Json::object() {
  Json j;
  j.type_ = Type::object;
  return j;
}

void Json::push_back(Json v) {
  if (type_ == Type::array) items_.push_back(std::move(v));
}

void Json::set(const std::string& key, Json v) {
  if (type_ != Type::object) return;
  for (auto& [k, existing] : members_) {
    if (k == key) {
      existing = std::move(v);
      return;
    }
  }
  members_.emplace_back(key, std::move(v));
}

const Json* Json::find(const std::string& key) const {
  if (type_ != Type::object) return nullptr;
  for (const auto& [k, v] : members_) {
    if (k == key) return &v;
  }
  return nullptr;
}

double Json::get_number(const std::string& key, double fallback) const {
  const Json* j = find(key);
  return j != nullptr && j->is_number() ? j->as_number() : fallback;
}

std::string Json::get_string(const std::string& key,
                             const std::string& fallback) const {
  const Json* j = find(key);
  return j != nullptr && j->is_string() ? j->as_string() : fallback;
}

bool Json::get_bool(const std::string& key, bool fallback) const {
  const Json* j = find(key);
  return j != nullptr && j->is_bool() ? j->as_bool() : fallback;
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (unsigned char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += static_cast<char>(c);
        }
    }
  }
  return out;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";  // JSON has no inf/nan
  // Integers up to 2^53 print exactly, without a decimal point.
  if (v == std::floor(v) && std::fabs(v) < 9.007e15) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.0f", v);
    return buf;
  }
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.12g", v);
  return buf;
}

void Json::dump_to(std::string& out, int indent, int depth) const {
  const std::string pad(static_cast<std::size_t>(indent) * (depth + 1), ' ');
  const std::string close_pad(static_cast<std::size_t>(indent) * depth, ' ');
  const char* nl = indent > 0 ? "\n" : "";
  switch (type_) {
    case Type::null: out += "null"; break;
    case Type::boolean: out += bool_ ? "true" : "false"; break;
    case Type::number: out += json_number(number_); break;
    case Type::string:
      out += '"';
      out += json_escape(string_);
      out += '"';
      break;
    case Type::array: {
      if (items_.empty()) {
        out += "[]";
        break;
      }
      out += '[';
      out += nl;
      for (std::size_t i = 0; i < items_.size(); ++i) {
        if (indent > 0) out += pad;
        items_[i].dump_to(out, indent, depth + 1);
        if (i + 1 < items_.size()) out += ',';
        out += nl;
      }
      if (indent > 0) out += close_pad;
      out += ']';
      break;
    }
    case Type::object: {
      if (members_.empty()) {
        out += "{}";
        break;
      }
      out += '{';
      out += nl;
      for (std::size_t i = 0; i < members_.size(); ++i) {
        if (indent > 0) out += pad;
        out += '"';
        out += json_escape(members_[i].first);
        out += indent > 0 ? "\": " : "\":";
        members_[i].second.dump_to(out, indent, depth + 1);
        if (i + 1 < members_.size()) out += ',';
        out += nl;
      }
      if (indent > 0) out += close_pad;
      out += '}';
      break;
    }
  }
}

std::string Json::dump(int indent) const {
  std::string out;
  dump_to(out, indent, 0);
  return out;
}

// --- parser ----------------------------------------------------------------

namespace {

// Arrays and objects nest at most this deep: the parser recurses once per
// level, so an unbounded depth would turn a hostile file into a stack
// overflow instead of an error.  Result and shape files nest a few levels.
constexpr int kMaxDepth = 256;

struct Parser {
  explicit Parser(const std::string& t) : text(t) {}

  const std::string& text;
  std::size_t pos = 0;
  int depth = 0;
  std::string err;

  bool fail(const std::string& what) {
    err = what + " at byte " + std::to_string(pos);
    return false;
  }

  void skip_ws() {
    while (pos < text.size() &&
           (text[pos] == ' ' || text[pos] == '\t' || text[pos] == '\n' ||
            text[pos] == '\r')) {
      ++pos;
    }
  }

  bool consume(char c) {
    if (pos < text.size() && text[pos] == c) {
      ++pos;
      return true;
    }
    return false;
  }

  bool literal(const char* word, std::size_t len) {
    if (text.compare(pos, len, word) != 0) return fail("bad literal");
    pos += len;
    return true;
  }

  bool parse_string(std::string* out) {
    if (!consume('"')) return fail("expected string");
    std::string s;
    while (pos < text.size()) {
      char c = text[pos++];
      if (c == '"') {
        *out = std::move(s);
        return true;
      }
      if (c != '\\') {
        s += c;
        continue;
      }
      if (pos >= text.size()) return fail("dangling escape");
      char e = text[pos++];
      switch (e) {
        case '"': s += '"'; break;
        case '\\': s += '\\'; break;
        case '/': s += '/'; break;
        case 'b': s += '\b'; break;
        case 'f': s += '\f'; break;
        case 'n': s += '\n'; break;
        case 'r': s += '\r'; break;
        case 't': s += '\t'; break;
        case 'u': {
          if (pos + 4 > text.size()) return fail("short \\u escape");
          unsigned cp = 0;
          for (int i = 0; i < 4; ++i) {
            char h = text[pos++];
            cp <<= 4;
            if (h >= '0' && h <= '9') cp |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') cp |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') cp |= static_cast<unsigned>(h - 'A' + 10);
            else return fail("bad hex digit in \\u escape");
          }
          // Encode the code point as UTF-8 (surrogate pairs unsupported; the
          // writer never emits them — it only escapes control bytes).
          if (cp < 0x80) {
            s += static_cast<char>(cp);
          } else if (cp < 0x800) {
            s += static_cast<char>(0xC0 | (cp >> 6));
            s += static_cast<char>(0x80 | (cp & 0x3F));
          } else {
            s += static_cast<char>(0xE0 | (cp >> 12));
            s += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
            s += static_cast<char>(0x80 | (cp & 0x3F));
          }
          break;
        }
        default:
          return fail("unknown escape");
      }
    }
    return fail("unterminated string");
  }

  bool digits() {
    const std::size_t start = pos;
    while (pos < text.size() && text[pos] >= '0' && text[pos] <= '9') ++pos;
    return pos > start;
  }

  /// A number exactly as the JSON grammar spells it —
  /// -?(0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?[0-9]+)? — and finite as a
  /// double.  strtod alone would also take NaN, Infinity, hex, a leading
  /// '+', and overflow to inf, any of which silently disables a gate.
  bool parse_number(Json* out) {
    const std::size_t start = pos;
    consume('-');
    // A leading zero stands alone; any other integer part is [1-9][0-9]*.
    if (!consume('0') && !digits()) {
      return fail(pos == start ? "expected value" : "bad number");
    }
    if (consume('.') && !digits()) return fail("bad number fraction");
    if (consume('e') || consume('E')) {
      if (!consume('+')) consume('-');
      if (!digits()) return fail("bad number exponent");
    }
    const std::string lexeme = text.substr(start, pos - start);
    const double v = std::strtod(lexeme.c_str(), nullptr);
    if (!std::isfinite(v)) {
      pos = start;
      return fail("number out of range");
    }
    *out = Json::number(v);
    return true;
  }

  bool parse_value(Json* out) {
    skip_ws();
    if (pos >= text.size()) return fail("unexpected end of input");
    char c = text[pos];
    if (c == '[' || c == '{') {
      if (depth == kMaxDepth) {
        return fail("nesting deeper than " + std::to_string(kMaxDepth));
      }
      ++depth;
      const bool ok = c == '[' ? parse_array(out) : parse_object(out);
      --depth;
      return ok;
    }
    if (c == 'n') {
      if (!literal("null", 4)) return false;
      *out = Json();
      return true;
    }
    if (c == 't') {
      if (!literal("true", 4)) return false;
      *out = Json::boolean(true);
      return true;
    }
    if (c == 'f') {
      if (!literal("false", 5)) return false;
      *out = Json::boolean(false);
      return true;
    }
    if (c == '"') {
      std::string s;
      if (!parse_string(&s)) return false;
      *out = Json::string(std::move(s));
      return true;
    }
    return parse_number(out);
  }

  bool parse_array(Json* out) {
    ++pos;
    Json arr = Json::array();
    skip_ws();
    if (consume(']')) {
      *out = std::move(arr);
      return true;
    }
    while (true) {
      Json v;
      if (!parse_value(&v)) return false;
      arr.push_back(std::move(v));
      skip_ws();
      if (consume(']')) break;
      if (!consume(',')) return fail("expected ',' or ']'");
    }
    *out = std::move(arr);
    return true;
  }

  bool parse_object(Json* out) {
    ++pos;
    Json obj = Json::object();
    skip_ws();
    if (consume('}')) {
      *out = std::move(obj);
      return true;
    }
    while (true) {
      skip_ws();
      std::string key;
      if (!parse_string(&key)) return false;
      if (obj.find(key) != nullptr) return fail("duplicate key '" + key + "'");
      skip_ws();
      if (!consume(':')) return fail("expected ':'");
      Json v;
      if (!parse_value(&v)) return false;
      obj.set(key, std::move(v));
      skip_ws();
      if (consume('}')) break;
      if (!consume(',')) return fail("expected ',' or '}'");
    }
    *out = std::move(obj);
    return true;
  }
};

}  // namespace

bool Json::parse(const std::string& text, Json* out, std::string* err) {
  Parser p(text);
  if (!p.parse_value(out)) {
    if (err != nullptr) *err = p.err;
    return false;
  }
  p.skip_ws();
  if (p.pos != text.size()) {
    if (err != nullptr) {
      *err = "trailing garbage at byte " + std::to_string(p.pos);
    }
    return false;
  }
  return true;
}

}  // namespace emusim::report
