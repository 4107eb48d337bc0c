//===----------------------------------------------------------------------===//
///
/// \file
/// The check universe: the set of distinct canonical checks the optimizer
/// reasons about for one function, partitioned into *families* (paper
/// section 3.1). Checks with the same range-expression share a family;
/// within a family checks are ordered by range-constant, and a smaller
/// constant is stronger. Data-flow bit vectors are indexed by CheckID.
///
//===----------------------------------------------------------------------===//

#ifndef NASCENT_CHECKS_CHECKUNIVERSE_H
#define NASCENT_CHECKS_CHECKUNIVERSE_H

#include "ir/CheckExpr.h"
#include "ir/Function.h"

#include <cstdint>
#include <unordered_map>
#include <vector>

namespace nascent {

using CheckID = uint32_t;
using FamilyID = uint32_t;
constexpr CheckID InvalidCheck = ~CheckID(0);
constexpr FamilyID InvalidFamily = ~FamilyID(0);

/// Interning table for canonical checks.
///
/// In FamilyPerCheck mode (the paper's "no implications" ablation) every
/// check gets its own family, which both disables within-family strength
/// ordering and inflates the implication graph exactly as the paper
/// describes for the NI'/SE' experiments.
class CheckUniverse {
public:
  explicit CheckUniverse(bool FamilyPerCheck = false)
      : FamilyPerCheck(FamilyPerCheck) {}

  /// Returns the id of \p C, interning it if new.
  CheckID intern(const CheckExpr &C);

  /// Adds \p N to the "checks.universe.interned" counter without interning
  /// anything. The artifact cache replays the intern count of a universe
  /// build it satisfied from a stored seed (every universe entry of a
  /// fact-free build was interned exactly once), keeping the counter
  /// identical whether the build ran or was reused (docs/caching.md).
  static void creditInterned(uint64_t N);

  /// Returns the id of \p C or InvalidCheck when not interned.
  CheckID find(const CheckExpr &C) const;

  const CheckExpr &check(CheckID ID) const { return Checks[ID]; }

  size_t size() const { return Checks.size(); }

  FamilyID familyOf(CheckID ID) const { return CheckFamily[ID]; }

  size_t numFamilies() const { return Families.size(); }

  /// Members of a family in ascending bound order (strongest first).
  const std::vector<CheckID> &familyMembers(FamilyID F) const {
    return Families[F].Members;
  }

  /// The family whose range-expression is \p E, or InvalidFamily when no
  /// interned check has it. Always InvalidFamily in FamilyPerCheck mode,
  /// where families are not keyed by expression.
  FamilyID findFamily(const LinearExpr &E) const;

  /// The shared range-expression of a family.
  const LinearExpr &familyExpr(FamilyID F) const { return Families[F].Expr; }

  /// Checks whose range-expression references \p Sym (for kill sets).
  /// Returns an empty list for symbols never mentioned.
  const std::vector<CheckID> &checksUsingSymbol(SymbolID Sym) const;

  /// Monotonically increasing generation number, bumped on every new
  /// check; clients use it to invalidate closure caches.
  uint64_t generation() const { return Generation; }

  bool familyPerCheckMode() const { return FamilyPerCheck; }

private:
  struct FamilyData {
    LinearExpr Expr;
    std::vector<CheckID> Members; ///< ascending bound order
  };

  bool FamilyPerCheck;
  std::vector<CheckExpr> Checks;
  std::vector<FamilyID> CheckFamily;
  std::vector<FamilyData> Families;
  std::unordered_map<CheckExpr, CheckID, CheckExprHash> Interned;
  std::unordered_map<LinearExpr, FamilyID, LinearExprHash> FamilyByExpr;
  /// Indexed by SymbolID; grown on demand to the largest symbol seen.
  std::vector<std::vector<CheckID>> BySymbol;
  uint64_t Generation = 0;
};

} // namespace nascent

#endif // NASCENT_CHECKS_CHECKUNIVERSE_H
