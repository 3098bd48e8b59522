#include "common/json.h"

#include <cstdio>

namespace cqcs {

JsonWriter& JsonWriter::Raw(std::string_view text) {
  if (need_comma_) out_ += ',';
  out_ += text;
  need_comma_ = true;
  return *this;
}

JsonWriter& JsonWriter::Open(char c) {
  Raw(std::string_view(&c, 1));
  need_comma_ = false;
  return *this;
}

JsonWriter& JsonWriter::Close(char c) {
  out_ += c;
  need_comma_ = true;
  return *this;
}

JsonWriter& JsonWriter::Key(std::string_view key) {
  String(key);
  out_ += ':';
  need_comma_ = false;
  return *this;
}

JsonWriter& JsonWriter::String(std::string_view s) {
  std::string quoted = "\"";
  for (char c : s) {
    switch (c) {
      case '"': quoted += "\\\""; break;
      case '\\': quoted += "\\\\"; break;
      case '\n': quoted += "\\n"; break;
      case '\t': quoted += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          quoted += buf;
        } else {
          quoted += c;
        }
    }
  }
  quoted += '"';
  return Raw(quoted);
}

JsonWriter& JsonWriter::Double(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%g", v);
  return Raw(buf);
}

}  // namespace cqcs
