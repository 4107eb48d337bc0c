//===----------------------------------------------------------------------===//
///
/// \file
/// Function-local symbols (scalars, temporaries, arrays) and the symbol
/// table. Range-expressions of canonical checks are linear combinations of
/// integer scalar symbols, so symbol identity is the basis of check
/// families and of the kill sets of the data-flow problems.
///
//===----------------------------------------------------------------------===//

#ifndef NASCENT_IR_SYMBOL_H
#define NASCENT_IR_SYMBOL_H

#include "ir/Type.h"

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace nascent {

/// Dense index of a symbol within one function's symbol table.
using SymbolID = uint32_t;

/// Sentinel for "no symbol" (e.g. instructions without a destination).
constexpr SymbolID InvalidSymbol = ~SymbolID(0);

/// What kind of entity a symbol names.
enum class SymbolKind {
  Scalar, ///< user-declared scalar variable
  Temp,   ///< compiler temporary
  Array,  ///< array variable with declared bounds
};

/// One entry in a function's symbol table.
struct Symbol {
  SymbolKind Kind = SymbolKind::Scalar;
  std::string Name;
  ScalarType Type = ScalarType::Int; ///< scalar type (element type for arrays)
  ArrayShape Shape;                  ///< valid only when Kind == Array
  bool IsParam = false;              ///< true for procedure parameters
  /// For array parameters the callee aliases the caller's storage; scalars
  /// are passed by value.
  bool isArray() const { return Kind == SymbolKind::Array; }
};

/// Per-function symbol table with temp generation. Source names resolve
/// in Sema, through the program's interned names; the table itself keeps
/// no name index.
class SymbolTable {
public:
  /// Creates a scalar variable. Names must be unique among non-temps.
  SymbolID createScalar(std::string_view Name, ScalarType Type,
                        bool IsParam = false);

  /// Creates an array variable with the given shape.
  SymbolID createArray(std::string_view Name, ArrayShape Shape,
                       bool IsParam = false);

  /// Creates a fresh compiler temporary of scalar type \p Type, named
  /// "%<Hint><number>".
  SymbolID createTemp(ScalarType Type, std::string_view Hint = "t");

  /// Finds a symbol by source name with a scan; InvalidSymbol if absent.
  SymbolID lookup(std::string_view Name) const;

  const Symbol &get(SymbolID ID) const { return Symbols[ID]; }
  Symbol &get(SymbolID ID) { return Symbols[ID]; }

  size_t size() const { return Symbols.size(); }

  const std::vector<Symbol> &symbols() const { return Symbols; }

  /// Printable name of \p ID, valid even for temps.
  const std::string &name(SymbolID ID) const { return Symbols[ID].Name; }

private:
  std::vector<Symbol> Symbols;
  unsigned NextTempNumber = 0;
};

} // namespace nascent

#endif // NASCENT_IR_SYMBOL_H
