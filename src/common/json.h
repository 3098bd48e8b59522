// One JSON writer for every record the library renders (EngineResult,
// EngineExplain, EngineStats, InstanceProfile, ServeStats). The writer places
// the commas and escapes the strings; a record names its keys and values,
// and a nested record writes into its parent's writer.

#ifndef CQCS_COMMON_JSON_H_
#define CQCS_COMMON_JSON_H_

#include <cstdint>
#include <string>
#include <string_view>

namespace cqcs {

/// Appends compact JSON (no whitespace) to a string. Every call returns the
/// writer, so one value reads `w.Key("nodes").Uint(n)`. The caller keeps
/// the nesting balanced; the writer does not check it.
class JsonWriter {
 public:
  JsonWriter& BeginObject() { return Open('{'); }
  JsonWriter& EndObject() { return Close('}'); }
  JsonWriter& BeginArray() { return Open('['); }
  JsonWriter& EndArray() { return Close(']'); }
  /// An object key; the next call writes its value.
  JsonWriter& Key(std::string_view key);
  /// A quoted string: `"` and `\` are escaped, and control bytes become
  /// \n, \t or \u00XX.
  JsonWriter& String(std::string_view s);
  JsonWriter& Bool(bool b) { return Raw(b ? "true" : "false"); }
  JsonWriter& Int(int64_t v) { return Raw(std::to_string(v)); }
  JsonWriter& Uint(uint64_t v) { return Raw(std::to_string(v)); }
  /// Printed as `std::ostream` prints a double by default (%g, 6 digits).
  JsonWriter& Double(double v);
  JsonWriter& Null() { return Raw("null"); }

  /// `key`, then an object that `fields(*this)` fills, or null when the
  /// record is absent.
  template <typename Fn>
  JsonWriter& ObjectOrNull(std::string_view key, bool present, Fn&& fields) {
    Key(key);
    if (!present) return Null();
    BeginObject();
    fields(*this);
    return EndObject();
  }

  const std::string& str() const { return out_; }

 private:
  JsonWriter& Open(char c);
  JsonWriter& Close(char c);
  /// One value, preceded by a comma when a sibling precedes it.
  JsonWriter& Raw(std::string_view text);

  std::string out_;
  bool need_comma_ = false;
};

/// The JSON text of a record that writes itself with `WriteJson`.
template <typename Record>
std::string ToJsonString(const Record& record) {
  JsonWriter out;
  record.WriteJson(out);
  return out.str();
}

}  // namespace cqcs

#endif  // CQCS_COMMON_JSON_H_
