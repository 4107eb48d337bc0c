#include "obs/Json.h"

#include "support/StringUtils.h"

#include <cctype>
#include <cmath>
#include <cstdlib>
#include <set>

using namespace nascent;
using namespace nascent::obs;

std::string nascent::obs::jsonEscape(const std::string &S) {
  std::string Out;
  Out.reserve(S.size());
  for (char C : S) {
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\r':
      Out += "\\r";
      break;
    case '\t':
      Out += "\\t";
      break;
    default:
      if (static_cast<unsigned char>(C) < 0x20)
        Out += formatString("\\u%04x", C);
      else
        Out += C;
    }
  }
  return Out;
}

void JsonWriter::comma() {
  if (PendingKey) {
    PendingKey = false;
    return; // the key already placed the separator
  }
  if (!NeedComma.empty()) {
    if (NeedComma.back())
      Out += ',';
    NeedComma.back() = true;
  }
}

JsonWriter &JsonWriter::beginObject() {
  comma();
  Out += '{';
  NeedComma.push_back(false);
  return *this;
}

JsonWriter &JsonWriter::endObject() {
  NeedComma.pop_back();
  Out += '}';
  return *this;
}

JsonWriter &JsonWriter::beginArray() {
  comma();
  Out += '[';
  NeedComma.push_back(false);
  return *this;
}

JsonWriter &JsonWriter::endArray() {
  NeedComma.pop_back();
  Out += ']';
  return *this;
}

JsonWriter &JsonWriter::key(const std::string &K) {
  comma();
  Out += '"';
  Out += jsonEscape(K);
  Out += "\":";
  PendingKey = true;
  return *this;
}

JsonWriter &JsonWriter::value(const std::string &V) {
  comma();
  Out += '"';
  Out += jsonEscape(V);
  Out += '"';
  return *this;
}

JsonWriter &JsonWriter::value(const char *V) {
  return value(std::string(V));
}

JsonWriter &JsonWriter::value(int64_t V) {
  comma();
  Out += std::to_string(V);
  return *this;
}

JsonWriter &JsonWriter::value(uint64_t V) {
  comma();
  Out += std::to_string(V);
  return *this;
}

JsonWriter &JsonWriter::value(double V) {
  comma();
  if (std::isfinite(V))
    Out += formatString("%.17g", V);
  else
    Out += "null"; // NaN/inf are not representable in JSON
  return *this;
}

JsonWriter &JsonWriter::value(double V, int Decimals) {
  comma();
  if (std::isfinite(V))
    Out += formatString("%.*f", Decimals, V);
  else
    Out += "null";
  return *this;
}

JsonWriter &JsonWriter::value(bool V) {
  comma();
  Out += V ? "true" : "false";
  return *this;
}

JsonWriter &JsonWriter::null() {
  comma();
  Out += "null";
  return *this;
}

const JsonValue *JsonValue::get(const std::string &Key) const {
  if (!isObject())
    return nullptr;
  for (const auto &[K, V] : Object)
    if (K == Key)
      return &V;
  return nullptr;
}

namespace {

class Parser {
public:
  Parser(const std::string &Text, std::string *Err)
      : Text(Text), Err(Err) {}

  bool run(JsonValue &Out) {
    skipWs();
    if (!parseValue(Out))
      return false;
    skipWs();
    if (Pos != Text.size())
      return fail("trailing characters after JSON document");
    return true;
  }

private:
  bool fail(const std::string &Msg) {
    if (Err && Err->empty())
      *Err = Msg + " at offset " + std::to_string(Pos);
    return false;
  }

  void skipWs() {
    while (Pos < Text.size() &&
           (Text[Pos] == ' ' || Text[Pos] == '\t' || Text[Pos] == '\n' ||
            Text[Pos] == '\r'))
      ++Pos;
  }

  bool literal(const char *Word) {
    size_t Len = std::char_traits<char>::length(Word);
    if (Text.compare(Pos, Len, Word) != 0)
      return fail(std::string("expected '") + Word + "'");
    Pos += Len;
    return true;
  }

  bool parseString(std::string &Out) {
    if (Pos >= Text.size() || Text[Pos] != '"')
      return fail("expected '\"'");
    ++Pos;
    while (Pos < Text.size()) {
      char C = Text[Pos];
      if (C == '"') {
        ++Pos;
        return true;
      }
      if (C == '\\') {
        if (Pos + 1 >= Text.size())
          return fail("truncated escape");
        char E = Text[Pos + 1];
        Pos += 2;
        switch (E) {
        case '"':
          Out += '"';
          break;
        case '\\':
          Out += '\\';
          break;
        case '/':
          Out += '/';
          break;
        case 'b':
          Out += '\b';
          break;
        case 'f':
          Out += '\f';
          break;
        case 'n':
          Out += '\n';
          break;
        case 'r':
          Out += '\r';
          break;
        case 't':
          Out += '\t';
          break;
        case 'u': {
          if (Pos + 4 > Text.size())
            return fail("truncated \\u escape");
          unsigned Code = 0;
          for (int K = 0; K != 4; ++K) {
            char H = Text[Pos + static_cast<size_t>(K)];
            Code <<= 4;
            if (H >= '0' && H <= '9')
              Code |= static_cast<unsigned>(H - '0');
            else if (H >= 'a' && H <= 'f')
              Code |= static_cast<unsigned>(H - 'a' + 10);
            else if (H >= 'A' && H <= 'F')
              Code |= static_cast<unsigned>(H - 'A' + 10);
            else
              return fail("bad hex digit in \\u escape");
          }
          Pos += 4;
          // UTF-8 encode the code point (surrogate pairs are passed
          // through individually; the telemetry emitters never produce
          // them).
          if (Code < 0x80) {
            Out += static_cast<char>(Code);
          } else if (Code < 0x800) {
            Out += static_cast<char>(0xC0 | (Code >> 6));
            Out += static_cast<char>(0x80 | (Code & 0x3F));
          } else {
            Out += static_cast<char>(0xE0 | (Code >> 12));
            Out += static_cast<char>(0x80 | ((Code >> 6) & 0x3F));
            Out += static_cast<char>(0x80 | (Code & 0x3F));
          }
          break;
        }
        default:
          return fail("unknown escape");
        }
        continue;
      }
      Out += C;
      ++Pos;
    }
    return fail("unterminated string");
  }

  bool parseValue(JsonValue &Out) {
    if (Pos >= Text.size())
      return fail("unexpected end of input");
    char C = Text[Pos];
    if (C == '{') {
      ++Pos;
      Out.K = JsonValue::Kind::Object;
      std::set<std::string> Keys;
      skipWs();
      if (Pos < Text.size() && Text[Pos] == '}') {
        ++Pos;
        return true;
      }
      while (true) {
        skipWs();
        std::string Key;
        if (!parseString(Key))
          return false;
        if (!Keys.insert(Key).second)
          return fail("duplicate key '" + Key + "'");
        skipWs();
        if (Pos >= Text.size() || Text[Pos] != ':')
          return fail("expected ':'");
        ++Pos;
        skipWs();
        JsonValue V;
        if (!parseValue(V))
          return false;
        Out.Object.emplace_back(std::move(Key), std::move(V));
        skipWs();
        if (Pos < Text.size() && Text[Pos] == ',') {
          ++Pos;
          continue;
        }
        if (Pos < Text.size() && Text[Pos] == '}') {
          ++Pos;
          return true;
        }
        return fail("expected ',' or '}'");
      }
    }
    if (C == '[') {
      ++Pos;
      Out.K = JsonValue::Kind::Array;
      skipWs();
      if (Pos < Text.size() && Text[Pos] == ']') {
        ++Pos;
        return true;
      }
      while (true) {
        skipWs();
        JsonValue V;
        if (!parseValue(V))
          return false;
        Out.Array.push_back(std::move(V));
        skipWs();
        if (Pos < Text.size() && Text[Pos] == ',') {
          ++Pos;
          continue;
        }
        if (Pos < Text.size() && Text[Pos] == ']') {
          ++Pos;
          return true;
        }
        return fail("expected ',' or ']'");
      }
    }
    if (C == '"') {
      Out.K = JsonValue::Kind::String;
      return parseString(Out.String);
    }
    if (C == 't') {
      Out.K = JsonValue::Kind::Bool;
      Out.Bool = true;
      return literal("true");
    }
    if (C == 'f') {
      Out.K = JsonValue::Kind::Bool;
      Out.Bool = false;
      return literal("false");
    }
    if (C == 'n') {
      Out.K = JsonValue::Kind::Null;
      return literal("null");
    }
    if (C == '-' || (C >= '0' && C <= '9')) {
      size_t Start = Pos;
      if (Text[Pos] == '-')
        ++Pos;
      while (Pos < Text.size() &&
             (std::isdigit(static_cast<unsigned char>(Text[Pos])) ||
              Text[Pos] == '.' || Text[Pos] == 'e' || Text[Pos] == 'E' ||
              Text[Pos] == '+' || Text[Pos] == '-'))
        ++Pos;
      std::string Num = Text.substr(Start, Pos - Start);
      char *End = nullptr;
      Out.K = JsonValue::Kind::Number;
      Out.Number = std::strtod(Num.c_str(), &End);
      if (End != Num.c_str() + Num.size())
        return fail("malformed number");
      return true;
    }
    return fail("unexpected character");
  }

  const std::string &Text;
  std::string *Err;
  size_t Pos = 0;
};

} // namespace

bool nascent::obs::parseJson(const std::string &Text, JsonValue &Out,
                             std::string *Err) {
  if (Err)
    Err->clear();
  Out = JsonValue();
  return Parser(Text, Err).run(Out);
}
