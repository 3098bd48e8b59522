// Small string utilities used by the text parsers and printers.

#ifndef CQCS_COMMON_STRINGS_H_
#define CQCS_COMMON_STRINGS_H_

#include <charconv>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace cqcs {

/// Removes leading and trailing ASCII whitespace.
std::string_view StripAsciiWhitespace(std::string_view s);

/// Splits on a single character delimiter; empty pieces are kept.
std::vector<std::string_view> SplitString(std::string_view s, char delim);

/// Splits into maximal runs of non-whitespace characters.
std::vector<std::string_view> SplitWhitespace(std::string_view s);

/// True if `s` begins with `prefix`.
bool StartsWith(std::string_view s, std::string_view prefix);

/// Parses a non-negative decimal integer; returns false on any deviation
/// (empty input, overflow, trailing garbage).
bool ParseUint64(std::string_view s, uint64_t* out);

/// Appends `v` in decimal, the digits std::to_string would give, with no
/// temporary string.
inline void AppendUint64(uint64_t v, std::string* out) {
  char digits[20];  // UINT64_MAX has 20 digits
  const std::to_chars_result r =
      std::to_chars(digits, digits + sizeof(digits), v);
  out->append(digits, r.ptr);
}

/// True if `s` is a valid identifier: [A-Za-z_][A-Za-z0-9_']*.
bool IsIdentifier(std::string_view s);

}  // namespace cqcs

#endif  // CQCS_COMMON_STRINGS_H_
