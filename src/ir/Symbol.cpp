#include "ir/Symbol.h"

#include <algorithm>
#include <charconv>
#include <cstring>

using namespace nascent;

SymbolID SymbolTable::createScalar(std::string_view Name, ScalarType Type,
                                   bool IsParam) {
  SymbolID ID = static_cast<SymbolID>(Symbols.size());
  Symbol &S = Symbols.emplace_back();
  S.Kind = SymbolKind::Scalar;
  S.Name = Name;
  S.Type = Type;
  S.IsParam = IsParam;
  return ID;
}

SymbolID SymbolTable::createArray(std::string_view Name, ArrayShape Shape,
                                  bool IsParam) {
  SymbolID ID = static_cast<SymbolID>(Symbols.size());
  Symbol &S = Symbols.emplace_back();
  S.Kind = SymbolKind::Array;
  S.Name = Name;
  S.Type = Shape.Element;
  S.Shape = std::move(Shape);
  S.IsParam = IsParam;
  return ID;
}

SymbolID SymbolTable::createTemp(ScalarType Type, std::string_view Hint) {
  SymbolID ID = static_cast<SymbolID>(Symbols.size());
  Symbol &S = Symbols.emplace_back();
  S.Kind = SymbolKind::Temp;
  // "%<Hint><number>", formatted on the stack and appended once (hints
  // are a few letters; a longer one is cut to fit).
  char Buf[48];
  Buf[0] = '%';
  size_t HintLen = std::min(Hint.size(), sizeof(Buf) - 12);
  std::memcpy(Buf + 1, Hint.data(), HintLen);
  char *End = std::to_chars(Buf + 1 + HintLen, Buf + sizeof(Buf),
                            NextTempNumber++)
                  .ptr;
  S.Name.append(Buf, End);
  S.Type = Type;
  return ID;
}

SymbolID SymbolTable::lookup(std::string_view Name) const {
  for (SymbolID ID = 0; ID != Symbols.size(); ++ID)
    if (Symbols[ID].Kind != SymbolKind::Temp && Symbols[ID].Name == Name)
      return ID;
  return InvalidSymbol;
}
