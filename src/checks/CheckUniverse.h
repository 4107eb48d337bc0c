//===----------------------------------------------------------------------===//
///
/// \file
/// The check universe: the set of distinct canonical checks the optimizer
/// reasons about for one function, partitioned into *families* (paper
/// section 3.1). Checks with the same range-expression share a family;
/// within a family checks are ordered by range-constant, and a smaller
/// constant is stronger. Data-flow bit vectors are indexed by CheckID.
///
/// The universe lives in flat tables: the checks in one array, two
/// open-addressing indexes (checks, families) into it, and the member and
/// per-symbol lists as ranges of two shared pools. Interning a check
/// allocates no node of its own; reserve() sizes every table once, after
/// which interning up to the reserved counts allocates nothing.
///
//===----------------------------------------------------------------------===//

#ifndef NASCENT_CHECKS_CHECKUNIVERSE_H
#define NASCENT_CHECKS_CHECKUNIVERSE_H

#include "ir/CheckExpr.h"
#include "ir/Function.h"

#include <cstdint>
#include <span>
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

  /// Copies \p O with its two slot tables sized to the entries it holds,
  /// not to what \p O reserved: a cached seed keeps only what it uses.
  /// Ids, family order, member order and per-symbol order are unchanged.
  CheckUniverse(const CheckUniverse &O);
  CheckUniverse(CheckUniverse &&) = default;
  CheckUniverse &operator=(const CheckUniverse &) = delete;
  CheckUniverse &operator=(CheckUniverse &&) = default;

  /// Sizes every table for up to \p NumChecks distinct checks with
  /// \p NumTerms terms between them, over symbols below \p NumSymbols.
  /// Interning within those counts then never grows a table. Only valid
  /// on an empty universe.
  void reserve(size_t NumChecks, size_t NumTerms, size_t NumSymbols);

  /// Returns the id of \p C, interning it if new.
  CheckID intern(const CheckExpr &C);

  /// Adds \p N to the "checks.universe.interned" counter. Interning does
  /// not count by itself: a CheckContext credits its universe's size once
  /// the universe is complete, the same whether it interned every check
  /// or took the universe from a cached seed (docs/caching.md), and
  /// scratch universes outside a context (the auditor's transport table)
  /// stay out of the counter.
  static void creditInterned(uint64_t N);

  /// Returns the id of \p C or InvalidCheck when not interned.
  CheckID find(const CheckExpr &C) const;

  const CheckExpr &check(CheckID ID) const { return Checks[ID]; }

  size_t size() const { return Checks.size(); }

  FamilyID familyOf(CheckID ID) const { return CheckFamily[ID]; }

  size_t numFamilies() const { return Families.size(); }

  /// Members of a family in ascending bound order (strongest first).
  std::span<const CheckID> familyMembers(FamilyID F) const {
    return listOf(MemberPool, Families[F].Members);
  }

  /// The family whose range-expression is \p E, or InvalidFamily when no
  /// interned check has it. Always InvalidFamily in FamilyPerCheck mode,
  /// where families are not keyed by expression.
  FamilyID findFamily(const LinearExpr &E) const;

  /// The shared range-expression of a family (that of its first check).
  const LinearExpr &familyExpr(FamilyID F) const {
    return Checks[Families[F].First].expr();
  }

  /// Checks whose range-expression references \p Sym (for kill sets), in
  /// interning order. Empty for symbols never mentioned.
  std::span<const CheckID> checksUsingSymbol(SymbolID Sym) const {
    if (Sym >= BySymbol.size())
      return {};
    return listOf(SymbolPool, BySymbol[Sym]);
  }

  /// Monotonically increasing generation number, bumped on every new
  /// check; clients use it to invalidate closure caches.
  uint64_t generation() const { return Generation; }

  bool familyPerCheckMode() const { return FamilyPerCheck; }

  /// Slots of the two open-addressing indexes (8 bytes each).
  size_t numSlots() const { return CheckSlots.size() + FamilySlots.size(); }

private:
  /// A list kept in a shared pool: Size entries from Begin, with room for
  /// Cap. A full list moves to the pool's end with twice the room (or
  /// grows in place when it already ends the pool), so a pool never holds
  /// more than four entries per listed value.
  struct PoolList {
    uint32_t Begin = 0, Size = 0, Cap = 0;
  };
  struct FamilyData {
    CheckID First;    ///< the check that opened the family
    PoolList Members; ///< ascending bound order
  };

  static std::span<const CheckID> listOf(const std::vector<CheckID> &Pool,
                                         PoolList L) {
    return {Pool.data() + L.Begin, L.Size};
  }
  /// Inserts \p V at position \p Pos of list \p L in \p Pool.
  static void insertAt(std::vector<CheckID> &Pool, PoolList &L, uint32_t Pos,
                       CheckID V);

  /// Open-addressing slot: the high half holds the upper 32 bits of the
  /// key's hash, the low half the entry's index + 1 (0 marks a free slot).
  using Slot = uint64_t;
  /// find() and findFamily() for a key hash already computed.
  CheckID find(const CheckExpr &C, uint64_t Hash) const;
  FamilyID findFamily(const LinearExpr &E, uint64_t Hash) const;
  static void growSlots(std::vector<Slot> &Slots, size_t Entries);
  void rehashChecks(size_t Entries);
  void rehashFamilies(size_t Entries);

  bool FamilyPerCheck;
  std::vector<CheckExpr> Checks;
  std::vector<FamilyID> CheckFamily;
  std::vector<FamilyData> Families;
  std::vector<Slot> CheckSlots;  ///< power-of-two size, at most half full
  std::vector<Slot> FamilySlots; ///< likewise; unused in FamilyPerCheck mode
  std::vector<CheckID> MemberPool;
  /// Indexed by SymbolID; grown on demand to the largest symbol seen.
  std::vector<PoolList> BySymbol;
  std::vector<CheckID> SymbolPool;
  uint64_t Generation = 0;
};

} // namespace nascent

#endif // NASCENT_CHECKS_CHECKUNIVERSE_H
