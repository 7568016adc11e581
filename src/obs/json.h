// The JSON number writer shared by every exporter (metrics registry, trace
// export, analyzer report, soak report). One format per type: integers as
// %llu, reals as %.6g — the golden files under tests/data depend on both.
#pragma once

#include <concepts>
#include <cstdint>
#include <cstdio>
#include <string>

namespace dgr::obs {

inline void append_u64(std::string& out, std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%llu", (unsigned long long)v);
  out += buf;
}

inline void append_double(std::string& out, double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  out += buf;
}

// `"key":value`, followed by a comma unless `comma` is false.
template <typename T>
  requires std::integral<T> || std::same_as<T, double>
void append_kv(std::string& out, const char* key, T v, bool comma = true) {
  out += '"';
  out += key;
  out += "\":";
  if constexpr (std::integral<T>)
    append_u64(out, static_cast<std::uint64_t>(v));
  else
    append_double(out, v);
  if (comma) out += ',';
}

}  // namespace dgr::obs
