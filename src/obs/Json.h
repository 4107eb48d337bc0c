//===----------------------------------------------------------------------===//
///
/// \file
/// Minimal JSON support for the telemetry subsystem: a streaming writer
/// used by `mfc -stats-json`, the Chrome-trace emitter, and the bench
/// harnesses' --json mode, plus a small recursive-descent parser used by
/// the round-trip tests and the bench-smoke output validator. No external
/// dependency; the dialect is plain RFC 8259 (no comments, no NaN).
///
//===----------------------------------------------------------------------===//

#ifndef NASCENT_OBS_JSON_H
#define NASCENT_OBS_JSON_H

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace nascent {
namespace obs {

/// Escapes \p S for inclusion in a JSON string literal (without the
/// surrounding quotes).
std::string jsonEscape(const std::string &S);

/// A streaming JSON writer. Call begin/end in matched pairs; commas and
/// quoting are handled automatically. Keys are only legal directly inside
/// an object, values inside an array or after a key.
class JsonWriter {
public:
  JsonWriter &beginObject();
  JsonWriter &endObject();
  JsonWriter &beginArray();
  JsonWriter &endArray();

  JsonWriter &key(const std::string &K);

  JsonWriter &value(const std::string &V);
  JsonWriter &value(const char *V);
  JsonWriter &value(int64_t V);
  JsonWriter &value(uint64_t V);
  JsonWriter &value(int V) { return value(static_cast<int64_t>(V)); }
  JsonWriter &value(unsigned V) { return value(static_cast<uint64_t>(V)); }
  JsonWriter &value(double V);
  JsonWriter &value(bool V);
  JsonWriter &null();

  /// key + value in one call.
  template <typename T> JsonWriter &kv(const std::string &K, T V) {
    key(K);
    return value(V);
  }

  /// The document built so far. Call once nesting is balanced.
  const std::string &str() const { return Out; }
  std::string take() { return std::move(Out); }

private:
  void comma();

  std::string Out;
  /// One entry per open scope: whether the next element needs a comma.
  std::vector<bool> NeedComma;
  bool PendingKey = false;
};

/// A parsed JSON value (tree form).
struct JsonValue {
  enum class Kind { Null, Bool, Number, String, Array, Object };

  Kind K = Kind::Null;
  bool Bool = false;
  double Number = 0;
  std::string String;
  std::vector<JsonValue> Array;
  std::vector<std::pair<std::string, JsonValue>> Object;

  bool isNull() const { return K == Kind::Null; }
  bool isBool() const { return K == Kind::Bool; }
  bool isNumber() const { return K == Kind::Number; }
  bool isString() const { return K == Kind::String; }
  bool isArray() const { return K == Kind::Array; }
  bool isObject() const { return K == Kind::Object; }

  /// Member lookup; null when absent or not an object.
  const JsonValue *get(const std::string &Key) const;
};

/// Parses \p Text into \p Out. On failure returns false and, when \p Err
/// is non-null, describes the first error with its byte offset. Trailing
/// non-whitespace after the document and a key repeated within one object
/// are errors.
bool parseJson(const std::string &Text, JsonValue &Out,
               std::string *Err = nullptr);

} // namespace obs
} // namespace nascent

#endif // NASCENT_OBS_JSON_H
