// The JSON writer and reader shared by every telemetry producer and consumer
// (metrics registry, cluster rollup, trace export, analyzer report, soak
// report; from_jsonl and the analyzer's metrics reader).
//
// Writer: one format per type — integers in decimal, reals as %.6g, bools as
// true/false, strings quoted verbatim (every string this repo writes is an
// identifier, so nothing needs escaping). The golden files under tests/data
// depend on these formats byte for byte.
//
// Reader: a small bounds-checked recursive-descent parser into a tree of
// JsonValue nodes that view the source text, plus typed member reads scoped
// to one object. Malformed input (truncated, bad number, nesting deeper than
// kJsonMaxDepth) and a known key holding the wrong type are rejected, never
// read past.
#pragma once

#include <charconv>
#include <concepts>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

namespace dgr::obs {

// ---- Writer ----

template <typename T>
void append_value(std::string& out, const T& v) {
  char buf[32];
  if constexpr (std::same_as<T, bool>) {
    out += v ? "true" : "false";
  } else if constexpr (std::signed_integral<T>) {
    out.append(buf, std::snprintf(buf, sizeof(buf), "%lld", (long long)v));
  } else if constexpr (std::integral<T>) {
    out.append(buf, std::snprintf(buf, sizeof(buf), "%llu",
                                  (unsigned long long)v));
  } else if constexpr (std::floating_point<T>) {
    out.append(buf, std::snprintf(buf, sizeof(buf), "%.6g", double(v)));
  } else {
    static_assert(std::convertible_to<T, std::string_view>);
    out += '"';
    out += std::string_view(v);
    out += '"';
  }
}

// `"key":`
inline void append_key(std::string& out, std::string_view key) {
  out += '"';
  out += key;
  out += "\":";
}

// `"key":value`, followed by a comma unless `comma` is false.
template <typename T>
void append_kv(std::string& out, std::string_view key, const T& v,
               bool comma = true) {
  append_key(out, key);
  append_value(out, v);
  if (comma) out += ',';
}

// ---- Reader ----

inline constexpr int kJsonMaxDepth = 16;

// One parsed value. Numbers and strings keep their source text (string
// escapes are skipped over, not decoded); typed reads convert on demand.
struct JsonValue {
  enum class Kind : std::uint8_t {
    kLiteral, kNumber, kString, kArray, kObject
  };
  Kind kind = Kind::kLiteral;
  std::string_view text;               // literal / number / string body
  std::vector<std::string_view> keys;  // object keys, parallel to items
  std::vector<JsonValue> items;        // array elements / object values

  const JsonValue* find(std::string_view key) const {
    for (std::size_t i = 0; i < keys.size(); ++i)
      if (keys[i] == key) return &items[i];
    return nullptr;
  }
};

class JsonReader {
 public:
  // Parses `text`, which must outlive the reader.
  explicit JsonReader(std::string_view text) : s_(text) {
    ok_ = value(root_, 0) && (skip_ws(), i_ == s_.size());
  }

  // False after a syntax error, or once a read found a key of the wrong
  // type or a number its target cannot hold.
  bool ok() const { return ok_; }
  const JsonValue& root() const { return root_; }

  // Reads member `key` of object `obj` into *out. An absent key returns
  // false and leaves *out as is (older dumps lack newer keys); a present key
  // that does not convert returns false and clears ok().
  template <typename T>
  bool read(const JsonValue& obj, std::string_view key, T* out) {
    const JsonValue* v = obj.find(key);
    if (!v) return false;
    if constexpr (std::same_as<T, std::string_view>) {
      if (v->kind == JsonValue::Kind::kString) {
        *out = v->text;
        return true;
      }
    } else if (v->kind == JsonValue::Kind::kNumber) {
      const char* end = v->text.data() + v->text.size();
      T x{};
      const auto [p, ec] = std::from_chars(v->text.data(), end, x);
      if (ec == std::errc() && p == end) {
        *out = x;
        return true;
      }
    }
    ok_ = false;
    return false;
  }

  // Member `key` of `obj` as an object / array; nullptr when absent (or of
  // another kind, which clears ok()).
  const JsonValue* object(const JsonValue& obj, std::string_view key) {
    return member(obj, key, JsonValue::Kind::kObject);
  }
  const JsonValue* array(const JsonValue& obj, std::string_view key) {
    return member(obj, key, JsonValue::Kind::kArray);
  }

 private:
  const JsonValue* member(const JsonValue& obj, std::string_view key,
                          JsonValue::Kind kind) {
    const JsonValue* v = obj.find(key);
    if (!v || v->kind == kind) return v;
    ok_ = false;
    return nullptr;
  }

  void skip_ws() {
    while (i_ < s_.size() && (s_[i_] == ' ' || s_[i_] == '\n' ||
                              s_[i_] == '\t' || s_[i_] == '\r'))
      ++i_;
  }
  bool eat(char c) {
    skip_ws();
    if (i_ == s_.size() || s_[i_] != c) return false;
    ++i_;
    return true;
  }
  bool digits() {
    const std::size_t b = i_;
    while (i_ < s_.size() && s_[i_] >= '0' && s_[i_] <= '9') ++i_;
    return i_ > b;
  }

  bool value(JsonValue& v, int depth) {
    skip_ws();
    if (i_ == s_.size()) return false;
    const char c = s_[i_];
    if (c == '{' || c == '[')
      return depth < kJsonMaxDepth && container(v, depth);
    if (c == '"') {
      v.kind = JsonValue::Kind::kString;
      return string(v.text);
    }
    for (std::string_view lit : {"true", "false", "null"}) {
      if (s_.substr(i_, lit.size()) != lit) continue;
      v.text = lit;
      i_ += lit.size();
      return true;
    }
    v.kind = JsonValue::Kind::kNumber;
    return number(v.text);
  }

  bool container(JsonValue& v, int depth) {
    const bool obj = s_[i_++] == '{';
    const char close = obj ? '}' : ']';
    v.kind = obj ? JsonValue::Kind::kObject : JsonValue::Kind::kArray;
    if (eat(close)) return true;
    do {
      if (obj) {
        skip_ws();
        if (!string(v.keys.emplace_back()) || !eat(':')) return false;
      }
      if (!value(v.items.emplace_back(), depth + 1)) return false;
    } while (eat(','));
    return eat(close);
  }

  bool string(std::string_view& out) {
    if (i_ == s_.size() || s_[i_] != '"') return false;
    const std::size_t b = ++i_;
    while (i_ < s_.size() && s_[i_] != '"') {
      if (static_cast<unsigned char>(s_[i_]) < 0x20) return false;
      i_ += s_[i_] == '\\' ? 2 : 1;
    }
    if (i_ >= s_.size()) return false;
    out = s_.substr(b, i_++ - b);
    return true;
  }

  // -?digits(.digits)?([eE][+-]?digits)?
  bool number(std::string_view& out) {
    const std::size_t b = i_;
    if (i_ < s_.size() && s_[i_] == '-') ++i_;
    if (!digits()) return false;
    if (i_ < s_.size() && s_[i_] == '.') {
      ++i_;
      if (!digits()) return false;
    }
    if (i_ < s_.size() && (s_[i_] == 'e' || s_[i_] == 'E')) {
      ++i_;
      if (i_ < s_.size() && (s_[i_] == '+' || s_[i_] == '-')) ++i_;
      if (!digits()) return false;
    }
    out = s_.substr(b, i_ - b);
    return true;
  }

  std::string_view s_;
  std::size_t i_ = 0;
  bool ok_ = false;
  JsonValue root_;
};

}  // namespace dgr::obs
