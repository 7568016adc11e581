// Enums defined once, as an X-macro table of rows
//   X(kEnumerator, "wire name", ...)
// from which the enumerators and the name array are both expanded, so a name
// can never drift from its enumerator (the TOKEN_NAMES idiom, generated).
#pragma once

#include <cstddef>

#define DGR_ENUMERATOR(e, ...) e,
#define DGR_ENUM_NAME(e, name, ...) name,

namespace dgr {

// names[v], or "?" for a value outside the table (e.g. a kCount_ sentinel or
// a payload word read back from a trace).
template <typename E, std::size_t N>
constexpr const char* enum_name(const char* const (&names)[N], E v) {
  const auto i = static_cast<std::size_t>(v);
  return i < N ? names[i] : "?";
}

}  // namespace dgr
