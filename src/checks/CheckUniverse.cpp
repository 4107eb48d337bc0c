#include "checks/CheckUniverse.h"

#include "obs/StatRegistry.h"

#include <algorithm>
#include <bit>
#include <cassert>

using namespace nascent;

NASCENT_STAT(NumInterned, "checks.universe.interned",
             "distinct checks interned into universes");

namespace {

/// Spreads a key hash over all 64 bits: the low bits pick the slot, the
/// high 32 bits are kept in it to skip most unequal keys unread.
uint64_t spread(uint64_t H) {
  H *= 0x9e3779b97f4a7c15ull;
  return H ^ (H >> 29);
}

constexpr uint32_t tagOf(uint64_t H) { return static_cast<uint32_t>(H >> 32); }

/// The index key of a check, from its expression's hash and its bound.
uint64_t checkKey(size_t ExprHash, int64_t Bound) {
  return spread(ExprHash * 31 + static_cast<uint64_t>(Bound));
}
uint64_t checkKey(const CheckExpr &C) {
  return checkKey(C.expr().hash(), C.bound());
}

/// The first list capacity; suite families and symbol lists mostly stay
/// within it.
constexpr uint32_t FirstListCap = 2;

} // namespace

void CheckUniverse::creditInterned(uint64_t N) { NumInterned += N; }

CheckUniverse::CheckUniverse(const CheckUniverse &O)
    : FamilyPerCheck(O.FamilyPerCheck), Checks(O.Checks),
      CheckFamily(O.CheckFamily), Families(O.Families),
      MemberPool(O.MemberPool), BySymbol(O.BySymbol),
      SymbolPool(O.SymbolPool), Generation(O.Generation) {
  rehashChecks(Checks.size());
  if (!FamilyPerCheck)
    rehashFamilies(Families.size());
}

void CheckUniverse::growSlots(std::vector<Slot> &Slots, size_t Entries) {
  size_t Want = std::bit_ceil(std::max<size_t>(8, 2 * Entries));
  if (Slots.size() < Want)
    Slots.assign(Want, 0);
  else
    std::fill(Slots.begin(), Slots.end(), 0);
}

void CheckUniverse::rehashChecks(size_t Entries) {
  growSlots(CheckSlots, Entries);
  size_t Mask = CheckSlots.size() - 1;
  for (CheckID ID = 0; ID != Checks.size(); ++ID) {
    uint64_t H = checkKey(Checks[ID]);
    size_t I = H & Mask;
    while (CheckSlots[I] != 0)
      I = (I + 1) & Mask;
    CheckSlots[I] = (uint64_t(tagOf(H)) << 32) | (ID + 1);
  }
}

void CheckUniverse::rehashFamilies(size_t Entries) {
  growSlots(FamilySlots, Entries);
  size_t Mask = FamilySlots.size() - 1;
  for (FamilyID F = 0; F != Families.size(); ++F) {
    uint64_t H = spread(familyExpr(F).hash());
    size_t I = H & Mask;
    while (FamilySlots[I] != 0)
      I = (I + 1) & Mask;
    FamilySlots[I] = (uint64_t(tagOf(H)) << 32) | (F + 1);
  }
}

void CheckUniverse::reserve(size_t NumChecks, size_t NumTerms,
                            size_t NumSymbols) {
  assert(Checks.empty() && "reserve() on a populated universe");
  Checks.reserve(NumChecks);
  CheckFamily.reserve(NumChecks);
  Families.reserve(NumChecks);
  rehashChecks(NumChecks);
  if (!FamilyPerCheck)
    rehashFamilies(NumChecks);
  MemberPool.reserve(4 * NumChecks);
  BySymbol.reserve(NumSymbols);
  SymbolPool.reserve(4 * NumTerms);
}

void CheckUniverse::insertAt(std::vector<CheckID> &Pool, PoolList &L,
                             uint32_t Pos, CheckID V) {
  if (L.Size == L.Cap) {
    uint32_t NewCap = L.Cap ? 2 * L.Cap : FirstListCap;
    if (L.Cap != 0 && L.Begin + L.Cap == Pool.size()) {
      Pool.resize(Pool.size() + (NewCap - L.Cap)); // grow in place
    } else {
      uint32_t NewBegin = static_cast<uint32_t>(Pool.size());
      Pool.resize(Pool.size() + NewCap);
      std::copy(Pool.begin() + L.Begin, Pool.begin() + L.Begin + L.Size,
                Pool.begin() + NewBegin);
      L.Begin = NewBegin;
    }
    L.Cap = NewCap;
  }
  CheckID *P = Pool.data() + L.Begin;
  std::copy_backward(P + Pos, P + L.Size, P + L.Size + 1);
  P[Pos] = V;
  ++L.Size;
}

CheckID CheckUniverse::find(const CheckExpr &C) const {
  return find(C, checkKey(C));
}

CheckID CheckUniverse::find(const CheckExpr &C, uint64_t H) const {
  if (CheckSlots.empty())
    return InvalidCheck;
  size_t Mask = CheckSlots.size() - 1;
  for (size_t I = H & Mask;; I = (I + 1) & Mask) {
    Slot S = CheckSlots[I];
    if (S == 0)
      return InvalidCheck;
    CheckID ID = static_cast<CheckID>(S) - 1;
    if (tagOf(S) == tagOf(H) && Checks[ID] == C)
      return ID;
  }
}

FamilyID CheckUniverse::findFamily(const LinearExpr &E) const {
  if (FamilyPerCheck)
    return InvalidFamily;
  return findFamily(E, spread(E.hash()));
}

FamilyID CheckUniverse::findFamily(const LinearExpr &E, uint64_t H) const {
  if (FamilySlots.empty())
    return InvalidFamily;
  size_t Mask = FamilySlots.size() - 1;
  for (size_t I = H & Mask;; I = (I + 1) & Mask) {
    Slot S = FamilySlots[I];
    if (S == 0)
      return InvalidFamily;
    FamilyID F = static_cast<FamilyID>(S) - 1;
    if (tagOf(S) == tagOf(H) && familyExpr(F) == E)
      return F;
  }
}

CheckID CheckUniverse::intern(const CheckExpr &C) {
  // The family key's hash feeds the check's.
  size_t ExprHash = C.expr().hash();
  uint64_t H = checkKey(ExprHash, C.bound());
  CheckID Found = find(C, H);
  if (Found != InvalidCheck)
    return Found;
  // A new check: grow the index first if it would pass half full.
  if (2 * (Checks.size() + 1) > CheckSlots.size())
    rehashChecks(2 * (Checks.size() + 1));
  size_t Mask = CheckSlots.size() - 1;
  size_t I = H & Mask;
  while (CheckSlots[I] != 0)
    I = (I + 1) & Mask;

  CheckID ID = static_cast<CheckID>(Checks.size());
  Checks.push_back(C);
  CheckSlots[I] = (uint64_t(tagOf(H)) << 32) | (ID + 1);
  ++Generation;

  FamilyID F = InvalidFamily;
  if (!FamilyPerCheck) {
    uint64_t FH = spread(ExprHash);
    F = findFamily(C.expr(), FH);
    if (F == InvalidFamily) {
      if (2 * (Families.size() + 1) > FamilySlots.size())
        rehashFamilies(2 * (Families.size() + 1));
      size_t FMask = FamilySlots.size() - 1;
      size_t J = FH & FMask;
      while (FamilySlots[J] != 0)
        J = (J + 1) & FMask;
      FamilySlots[J] = (uint64_t(tagOf(FH)) << 32) | (Families.size() + 1);
    }
  }
  if (F == InvalidFamily) {
    F = static_cast<FamilyID>(Families.size());
    Families.push_back({ID, {}});
  }
  CheckFamily.push_back(F);

  // Keep family members ordered by ascending bound (strongest first).
  std::span<const CheckID> Members = familyMembers(F);
  uint32_t Pos = static_cast<uint32_t>(
      std::lower_bound(Members.begin(), Members.end(), ID,
                       [&](CheckID A, CheckID B) {
                         return Checks[A].bound() < Checks[B].bound();
                       }) -
      Members.begin());
  insertAt(MemberPool, Families[F].Members, Pos, ID);

  for (const auto &[Sym, Coeff] : C.expr().terms()) {
    (void)Coeff;
    if (Sym >= BySymbol.size())
      BySymbol.resize(Sym + 1);
    insertAt(SymbolPool, BySymbol[Sym], BySymbol[Sym].Size, ID);
  }
  return ID;
}
