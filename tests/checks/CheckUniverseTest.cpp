#include "checks/CheckUniverse.h"

#include "ir/Symbol.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>
#include <utility>

using namespace nascent;

namespace {

class CheckUniverseTest : public ::testing::Test {
protected:
  void SetUp() override {
    I = Syms.createScalar("i", ScalarType::Int);
    N = Syms.createScalar("n", ScalarType::Int);
  }
  SymbolTable Syms;
  SymbolID I = 0, N = 0;
};

TEST_F(CheckUniverseTest, InterningDeduplicates) {
  CheckUniverse U;
  CheckID A = U.intern(CheckExpr(LinearExpr::term(I), 10));
  CheckID B = U.intern(CheckExpr(LinearExpr::term(I), 10));
  EXPECT_EQ(A, B);
  EXPECT_EQ(U.size(), 1u);
  // Canonicalisation makes (i + 1 <= 11) the same check.
  LinearExpr E = LinearExpr::term(I) + LinearExpr::constant(1);
  CheckID C = U.intern(CheckExpr(E, 11));
  EXPECT_EQ(C, A);
}

TEST_F(CheckUniverseTest, FamiliesShareRangeExpression) {
  CheckUniverse U;
  CheckID C10 = U.intern(CheckExpr(LinearExpr::term(I), 10));
  CheckID C5 = U.intern(CheckExpr(LinearExpr::term(I), 5));
  CheckID CN = U.intern(CheckExpr(LinearExpr::term(N), 10));
  EXPECT_EQ(U.familyOf(C10), U.familyOf(C5));
  EXPECT_NE(U.familyOf(C10), U.familyOf(CN));
  EXPECT_EQ(U.numFamilies(), 2u);

  // Members ordered ascending by bound: strongest first.
  const auto &Members = U.familyMembers(U.familyOf(C10));
  ASSERT_EQ(Members.size(), 2u);
  EXPECT_EQ(Members[0], C5);
  EXPECT_EQ(Members[1], C10);
}

TEST_F(CheckUniverseTest, FamilyPerCheckMode) {
  CheckUniverse U(/*FamilyPerCheck=*/true);
  CheckID A = U.intern(CheckExpr(LinearExpr::term(I), 10));
  CheckID B = U.intern(CheckExpr(LinearExpr::term(I), 5));
  EXPECT_NE(U.familyOf(A), U.familyOf(B));
  EXPECT_EQ(U.numFamilies(), 2u);
}

TEST_F(CheckUniverseTest, SymbolIndex) {
  CheckUniverse U;
  LinearExpr E = LinearExpr::term(I) + LinearExpr::term(N, -4);
  CheckID A = U.intern(CheckExpr(E, 1));
  CheckID B = U.intern(CheckExpr(LinearExpr::term(N), 3));
  const auto &ForI = U.checksUsingSymbol(I);
  ASSERT_EQ(ForI.size(), 1u);
  EXPECT_EQ(ForI[0], A);
  const auto &ForN = U.checksUsingSymbol(N);
  EXPECT_EQ(ForN.size(), 2u);
  EXPECT_TRUE(U.checksUsingSymbol(12345).empty());
  (void)B;
}

TEST_F(CheckUniverseTest, GenerationBumpsOnNewChecksOnly) {
  CheckUniverse U;
  uint64_t G0 = U.generation();
  U.intern(CheckExpr(LinearExpr::term(I), 10));
  uint64_t G1 = U.generation();
  EXPECT_GT(G1, G0);
  U.intern(CheckExpr(LinearExpr::term(I), 10));
  EXPECT_EQ(U.generation(), G1);
}

TEST_F(CheckUniverseTest, FindWithoutInterning) {
  CheckUniverse U;
  EXPECT_EQ(U.find(CheckExpr(LinearExpr::term(I), 10)), InvalidCheck);
  CheckID A = U.intern(CheckExpr(LinearExpr::term(I), 10));
  EXPECT_EQ(U.find(CheckExpr(LinearExpr::term(I), 10)), A);
}

/// A check as the reference model keys it: its terms in the expression's
/// order, then its bound.
using Terms = std::vector<std::pair<SymbolID, int64_t>>;
Terms termsOf(const LinearExpr &E) {
  Terms T;
  for (const auto &[Sym, Coeff] : E.terms())
    T.emplace_back(Sym, Coeff);
  return T;
}

/// The universe's contract restated over std::map: ids in first-intern
/// order, families keyed by expression (or one per check), members in
/// ascending bound order, per-symbol lists in interning order, and a
/// generation that counts new checks.
struct ReferenceUniverse {
  explicit ReferenceUniverse(bool FamilyPerCheck)
      : FamilyPerCheck(FamilyPerCheck) {}

  CheckID intern(const CheckExpr &C) {
    auto Key = std::make_pair(termsOf(C.expr()), C.bound());
    auto It = Ids.find(Key);
    if (It != Ids.end())
      return It->second;
    CheckID ID = static_cast<CheckID>(Bounds.size());
    Ids.emplace(Key, ID);
    Bounds.push_back(C.bound());
    FamilyID F;
    auto FIt = FamilyByTerms.find(Key.first);
    if (FamilyPerCheck || FIt == FamilyByTerms.end()) {
      F = static_cast<FamilyID>(Members.size());
      Members.emplace_back();
      if (!FamilyPerCheck)
        FamilyByTerms.emplace(Key.first, F);
    } else {
      F = FIt->second;
    }
    Family.push_back(F);
    auto &M = Members[F];
    M.insert(std::lower_bound(M.begin(), M.end(), ID,
                              [&](CheckID A, CheckID B) {
                                return Bounds[A] < Bounds[B];
                              }),
             ID);
    for (const auto &[Sym, Coeff] : Key.first)
      BySymbol[Sym].push_back(ID);
    ++Generation;
    return ID;
  }

  bool FamilyPerCheck;
  std::map<std::pair<Terms, int64_t>, CheckID> Ids;
  std::map<Terms, FamilyID> FamilyByTerms;
  std::vector<int64_t> Bounds;
  std::vector<FamilyID> Family;
  std::vector<std::vector<CheckID>> Members;
  std::map<SymbolID, std::vector<CheckID>> BySymbol;
  uint64_t Generation = 0;
};

/// 5000 random interns of 1- to 4-term checks over 6 symbols, with few
/// enough distinct coefficients and bounds that both new checks and
/// repeats are frequent, compared after every intern against the
/// reference model, and in full at checkpoints.
void checkAgainstReference(bool FamilyPerCheck) {
  std::mt19937_64 Rng(FamilyPerCheck ? 7 : 3);
  auto Pick = [&](int64_t Lo, int64_t Hi) {
    return std::uniform_int_distribution<int64_t>(Lo, Hi)(Rng);
  };
  CheckUniverse U(FamilyPerCheck);
  ReferenceUniverse Ref(FamilyPerCheck);
  std::vector<CheckExpr> Seen;
  auto Compare = [&] {
    ASSERT_EQ(U.size(), Ref.Bounds.size());
    ASSERT_EQ(U.numFamilies(), Ref.Members.size());
    EXPECT_EQ(U.generation(), Ref.Generation);
    for (CheckID ID = 0; ID != U.size(); ++ID) {
      EXPECT_EQ(U.familyOf(ID), Ref.Family[ID]);
      EXPECT_EQ(U.find(U.check(ID)), ID);
    }
    for (FamilyID F = 0; F != U.numFamilies(); ++F) {
      std::span<const CheckID> M = U.familyMembers(F);
      EXPECT_EQ(std::vector<CheckID>(M.begin(), M.end()), Ref.Members[F]);
      EXPECT_EQ(U.findFamily(U.familyExpr(F)),
                FamilyPerCheck ? InvalidFamily : F);
    }
    for (SymbolID Sym = 0; Sym != 8; ++Sym) {
      std::span<const CheckID> L = U.checksUsingSymbol(Sym);
      auto It = Ref.BySymbol.find(Sym);
      EXPECT_EQ(std::vector<CheckID>(L.begin(), L.end()),
                It == Ref.BySymbol.end() ? std::vector<CheckID>()
                                         : It->second);
    }
  };
  for (int Step = 0; Step != 5000; ++Step) {
    CheckExpr C;
    if (!Seen.empty() && Pick(0, 3) == 0) {
      C = Seen[static_cast<size_t>(Pick(0, Seen.size() - 1))];
    } else {
      LinearExpr E;
      for (int64_t K = Pick(1, 4); K-- > 0;)
        E.addTerm(static_cast<SymbolID>(Pick(0, 5)), Pick(-2, 2) | 1);
      C = CheckExpr(E, Pick(-4, 4));
    }
    // A lookup before interning: found exactly when the model has it.
    auto Key = std::make_pair(termsOf(C.expr()), C.bound());
    auto RefIt = Ref.Ids.find(Key);
    EXPECT_EQ(U.find(C),
              RefIt == Ref.Ids.end() ? InvalidCheck : RefIt->second);
    if (!FamilyPerCheck && RefIt == Ref.Ids.end()) {
      auto FIt = Ref.FamilyByTerms.find(Key.first);
      EXPECT_EQ(U.findFamily(C.expr()),
                FIt == Ref.FamilyByTerms.end() ? InvalidFamily : FIt->second);
    }
    CheckID Want = Ref.intern(C);
    ASSERT_EQ(U.intern(C), Want) << "step " << Step;
    EXPECT_EQ(U.generation(), Ref.Generation);
    Seen.push_back(C);
    if (Step % 1000 == 999)
      Compare();
  }
  // Both new checks and repeats occurred, and families grew past one.
  EXPECT_GT(U.size(), 500u);
  EXPECT_LT(U.size(), 4000u);
  if (!FamilyPerCheck) {
    size_t Largest = 0;
    for (FamilyID F = 0; F != U.numFamilies(); ++F)
      Largest = std::max(Largest, U.familyMembers(F).size());
    EXPECT_GT(Largest, 4u);
  }
}

TEST_F(CheckUniverseTest, RandomInternsMatchAReferenceModel) {
  checkAgainstReference(/*FamilyPerCheck=*/false);
}

TEST_F(CheckUniverseTest, RandomInternsMatchAReferenceModelPerCheck) {
  checkAgainstReference(/*FamilyPerCheck=*/true);
}

TEST_F(CheckUniverseTest, ReservedTablesGiveTheSameUniverse) {
  // reserve() only sizes the tables: ids, families and lists match an
  // unreserved universe fed the same checks.
  CheckUniverse A, B;
  B.reserve(8, 16, 4);
  LinearExpr E = LinearExpr::term(I) + LinearExpr::term(N, -4);
  for (CheckUniverse *U : {&A, &B}) {
    U->intern(CheckExpr(E, 3));
    U->intern(CheckExpr(LinearExpr::term(N), 7));
    U->intern(CheckExpr(E, 1));
    U->intern(CheckExpr(LinearExpr::term(N), 7));
  }
  ASSERT_EQ(A.size(), B.size());
  for (CheckID C = 0; C != A.size(); ++C) {
    EXPECT_EQ(A.check(C), B.check(C));
    EXPECT_EQ(A.familyOf(C), B.familyOf(C));
  }
  std::span<const CheckID> MA = A.familyMembers(0), MB = B.familyMembers(0);
  EXPECT_TRUE(std::equal(MA.begin(), MA.end(), MB.begin(), MB.end()));
  EXPECT_EQ(MA.size(), 2u);
  EXPECT_EQ(MA[0], 2u); // bound 1 before bound 3
}

TEST_F(CheckUniverseTest, CopyHasSlotTablesSizedToItsEntries) {
  // Reserved for 64 checks but holding 5 in 2 families: a copy keeps
  // slots for those entries (a power of two at least twice the entries,
  // and at least 8: 16 for the checks, 8 for the families), and answers
  // every query the way the original does.
  CheckUniverse Big;
  Big.reserve(64, 128, 4);
  LinearExpr E = LinearExpr::term(I) + LinearExpr::term(N, -4);
  for (int64_t B = 0; B != 5; ++B)
    Big.intern(CheckExpr(B % 2 ? E : LinearExpr::term(N), B));
  ASSERT_EQ(Big.numFamilies(), 2u);
  CheckUniverse Copy(Big);
  EXPECT_EQ(Big.numSlots(), 128u + 128u);
  EXPECT_EQ(Copy.numSlots(), 16u + 8u);
  ASSERT_EQ(Copy.size(), Big.size());
  ASSERT_EQ(Copy.numFamilies(), Big.numFamilies());
  for (CheckID C = 0; C != Big.size(); ++C) {
    EXPECT_EQ(Copy.check(C), Big.check(C));
    EXPECT_EQ(Copy.find(Big.check(C)), C);
    EXPECT_EQ(Copy.familyOf(C), Big.familyOf(C));
    EXPECT_EQ(Copy.findFamily(Big.check(C).expr()), Big.familyOf(C));
  }
  for (FamilyID F = 0; F != Big.numFamilies(); ++F) {
    std::span<const CheckID> MA = Big.familyMembers(F);
    std::span<const CheckID> MB = Copy.familyMembers(F);
    EXPECT_TRUE(std::equal(MA.begin(), MA.end(), MB.begin(), MB.end()));
  }
  for (SymbolID S : {I, N}) {
    std::span<const CheckID> UA = Big.checksUsingSymbol(S);
    std::span<const CheckID> UB = Copy.checksUsingSymbol(S);
    EXPECT_TRUE(std::equal(UA.begin(), UA.end(), UB.begin(), UB.end()));
  }
  EXPECT_EQ(Copy.find(CheckExpr(E, 99)), InvalidCheck);
}

} // namespace
