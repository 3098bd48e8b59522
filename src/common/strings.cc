#include "common/strings.h"

#include <cctype>
#include <cstdint>

namespace cqcs {

std::string_view StripAsciiWhitespace(std::string_view s) {
  size_t begin = 0;
  while (begin < s.size() &&
         std::isspace(static_cast<unsigned char>(s[begin]))) {
    ++begin;
  }
  size_t end = s.size();
  while (end > begin && std::isspace(static_cast<unsigned char>(s[end - 1]))) {
    --end;
  }
  return s.substr(begin, end - begin);
}

std::vector<std::string_view> SplitString(std::string_view s, char delim) {
  std::vector<std::string_view> out;
  size_t start = 0;
  while (true) {
    size_t pos = s.find(delim, start);
    if (pos == std::string_view::npos) {
      out.push_back(s.substr(start));
      return out;
    }
    out.push_back(s.substr(start, pos - start));
    start = pos + 1;
  }
}

std::vector<std::string_view> SplitWhitespace(std::string_view s) {
  std::vector<std::string_view> out;
  size_t i = 0;
  while (i < s.size()) {
    while (i < s.size() && std::isspace(static_cast<unsigned char>(s[i]))) ++i;
    size_t start = i;
    while (i < s.size() && !std::isspace(static_cast<unsigned char>(s[i]))) {
      ++i;
    }
    if (i > start) out.push_back(s.substr(start, i - start));
  }
  return out;
}

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

bool ParseUint64(std::string_view s, uint64_t* out) {
  if (s.empty()) return false;
  uint64_t value = 0;
  for (char c : s) {
    if (c < '0' || c > '9') return false;
    uint64_t digit = static_cast<uint64_t>(c - '0');
    if (value > (UINT64_MAX - digit) / 10) return false;  // overflow
    value = value * 10 + digit;
  }
  *out = value;
  return true;
}

bool IsIdentifier(std::string_view s) {
  if (s.empty()) return false;
  auto head = static_cast<unsigned char>(s[0]);
  if (!std::isalpha(head) && s[0] != '_') return false;
  for (size_t i = 1; i < s.size(); ++i) {
    auto c = static_cast<unsigned char>(s[i]);
    if (!std::isalnum(c) && s[i] != '_' && s[i] != '\'') return false;
  }
  return true;
}

}  // namespace cqcs
