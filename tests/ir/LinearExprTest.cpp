#include "ir/LinearExpr.h"

#include "ir/CheckExpr.h"
#include "ir/Symbol.h"

#include <gtest/gtest.h>

#include <limits>
#include <map>
#include <random>
#include <vector>

using namespace nascent;

namespace {

class LinearExprTest : public ::testing::Test {
protected:
  void SetUp() override {
    I = Syms.createScalar("i", ScalarType::Int);
    J = Syms.createScalar("j", ScalarType::Int);
    N = Syms.createScalar("n", ScalarType::Int);
  }
  SymbolTable Syms;
  SymbolID I = 0, J = 0, N = 0;
};

TEST_F(LinearExprTest, ConstantAndTerm) {
  LinearExpr C = LinearExpr::constant(7);
  EXPECT_TRUE(C.isConstant());
  EXPECT_EQ(C.constantPart(), 7);

  LinearExpr T = LinearExpr::term(I, 3);
  EXPECT_FALSE(T.isConstant());
  EXPECT_EQ(T.coeff(I), 3);
  EXPECT_EQ(T.coeff(J), 0);
}

TEST_F(LinearExprTest, AdditionMergesAndCancels) {
  LinearExpr A = LinearExpr::term(I, 2) + LinearExpr::term(J, 1);
  LinearExpr B = LinearExpr::term(I, -2) + LinearExpr::constant(5);
  LinearExpr Sum = A + B;
  EXPECT_EQ(Sum.coeff(I), 0);
  EXPECT_EQ(Sum.coeff(J), 1);
  EXPECT_EQ(Sum.constantPart(), 5);
  // Cancelled terms are removed entirely (canonical form).
  EXPECT_EQ(Sum.terms().size(), 1u);
}

TEST_F(LinearExprTest, CanonicalTermOrderIndependence) {
  // i + n built in either order compares equal: the canonical order is
  // what makes syntactically different but equivalent range expressions
  // share a family (paper section 2.2).
  LinearExpr A = LinearExpr::term(I) + LinearExpr::term(N);
  LinearExpr B = LinearExpr::term(N) + LinearExpr::term(I);
  EXPECT_EQ(A, B);
  EXPECT_EQ(A.hash(), B.hash());
}

TEST_F(LinearExprTest, ScaleAndNegate) {
  LinearExpr A = LinearExpr::term(I, 2) + LinearExpr::constant(3);
  LinearExpr S = A.scaled(-2);
  EXPECT_EQ(S.coeff(I), -4);
  EXPECT_EQ(S.constantPart(), -6);
  EXPECT_EQ(A.negated().coeff(I), -2);
  EXPECT_TRUE(A.scaled(0).isConstant());
  EXPECT_EQ(A.scaled(0).constantPart(), 0);
}

TEST_F(LinearExprTest, SubtractionAndSymbolicPart) {
  LinearExpr A = LinearExpr::term(I) + LinearExpr::constant(4);
  LinearExpr B = LinearExpr::term(N, 4) + LinearExpr::constant(1);
  LinearExpr D = A - B;
  EXPECT_EQ(D.coeff(I), 1);
  EXPECT_EQ(D.coeff(N), -4);
  EXPECT_EQ(D.constantPart(), 3);
  EXPECT_EQ(D.symbolicPart().constantPart(), 0);
  EXPECT_EQ(D.symbolicPart().coeff(N), -4);
}

TEST_F(LinearExprTest, Substitute) {
  // i + 2*j with j := n - 1 becomes i + 2*n - 2.
  LinearExpr E = LinearExpr::term(I) + LinearExpr::term(J, 2);
  LinearExpr Repl = LinearExpr::term(N) + LinearExpr::constant(-1);
  E.substitute(J, Repl);
  EXPECT_EQ(E.coeff(I), 1);
  EXPECT_EQ(E.coeff(J), 0);
  EXPECT_EQ(E.coeff(N), 2);
  EXPECT_EQ(E.constantPart(), -2);
}

TEST_F(LinearExprTest, RemoveTerm) {
  LinearExpr E = LinearExpr::term(I, 5) + LinearExpr::term(J, -1);
  EXPECT_EQ(E.removeTerm(I), 5);
  EXPECT_EQ(E.coeff(I), 0);
  EXPECT_EQ(E.removeTerm(I), 0);
}

TEST_F(LinearExprTest, Printing) {
  LinearExpr E = LinearExpr::term(I, 2) + LinearExpr::term(J, -1) +
                 LinearExpr::constant(3);
  EXPECT_EQ(E.str(Syms), "2*i - j + 3");
  EXPECT_EQ(LinearExpr::constant(0).str(Syms), "0");
  EXPECT_EQ(LinearExpr::term(I, -1).str(Syms), "-i");
}

TEST_F(LinearExprTest, PrintsInt64MinWithoutOverflow) {
  constexpr int64_t Min = std::numeric_limits<int64_t>::min();
  EXPECT_EQ(LinearExpr::term(I, Min).str(Syms), "-9223372036854775808*i");
  EXPECT_EQ((LinearExpr::term(I) + LinearExpr::term(J, Min)).str(Syms),
            "i - 9223372036854775808*j");
  EXPECT_EQ((LinearExpr::term(I) + LinearExpr::constant(Min)).str(Syms),
            "i - 9223372036854775808");
}

/// The terms of \p E as a vector, for comparing term sequences.
std::vector<LinearExpr::Term> termsOf(const LinearExpr &E) {
  return {E.terms().begin(), E.terms().end()};
}

TEST_F(LinearExprTest, SpillsPastTwoTermsAndShrinksBack) {
  // Two terms live inline; a third spills to the heap. Wherever the terms
  // live, the expression equals, hashes and lists its terms like one built
  // directly.
  SymbolID K = Syms.createScalar("k", ScalarType::Int);
  SymbolID M = Syms.createScalar("m", ScalarType::Int);
  const LinearExpr Two = LinearExpr::term(I, 2) + LinearExpr::term(N, -1) +
                         LinearExpr::constant(3);

  // Grow with addTerm (out of symbol order), then shrink with removeTerm.
  LinearExpr A = Two;
  A.addTerm(M, 4);
  A.addTerm(J, 5);
  A.addTerm(K, -6);
  ASSERT_EQ(A.terms().size(), 5u);
  EXPECT_EQ(termsOf(A), (std::vector<LinearExpr::Term>{
                            {I, 2}, {J, 5}, {N, -1}, {K, -6}, {M, 4}}));
  EXPECT_EQ(A.str(Syms), "2*i + 5*j - n - 6*k + 4*m + 3");
  EXPECT_NE(A, Two);
  EXPECT_EQ(A.removeTerm(J), 5);
  EXPECT_EQ(A.removeTerm(K), -6);
  EXPECT_EQ(A.removeTerm(M), 4);
  EXPECT_EQ(A, Two);
  EXPECT_EQ(A.hash(), Two.hash());
  EXPECT_EQ(termsOf(A), termsOf(Two));
  EXPECT_EQ(A.str(Syms), Two.str(Syms));

  // Grow with +=, shrink by coefficients that cancel to zero.
  LinearExpr B = Two;
  B += LinearExpr::term(J, 7) + LinearExpr::term(K, 1);
  ASSERT_EQ(B.terms().size(), 4u);
  B += LinearExpr::term(J, -7);
  B.addTerm(K, -1);
  EXPECT_EQ(B, Two);
  EXPECT_EQ(B.hash(), Two.hash());
  EXPECT_EQ(termsOf(B), termsOf(Two));

  // Grow with substitute, shrink back with -=.
  LinearExpr C = Two;
  LinearExpr Repl = LinearExpr::term(J) + LinearExpr::term(K, 2) +
                    LinearExpr::term(M, 3) + LinearExpr::constant(1);
  C.substitute(N, Repl); // -n becomes -j - 2k - 3m - 1
  EXPECT_EQ(termsOf(C), (std::vector<LinearExpr::Term>{
                            {I, 2}, {J, -1}, {K, -2}, {M, -3}}));
  EXPECT_EQ(C.constantPart(), 2);
  C -= LinearExpr::term(J, -1) + LinearExpr::term(K, -2) +
       LinearExpr::term(M, -3) + LinearExpr::term(N, 1);
  C.addConstant(1);
  EXPECT_EQ(C, Two);
  EXPECT_EQ(C.hash(), Two.hash());
  EXPECT_EQ(termsOf(C), termsOf(Two));
}

TEST_F(LinearExprTest, SpilledExpressionsCopyAndMove) {
  SymbolID K = Syms.createScalar("k", ScalarType::Int);
  LinearExpr Big = LinearExpr::term(I) + LinearExpr::term(J, 2) +
                   LinearExpr::term(K, 3) + LinearExpr::constant(-4);
  ASSERT_EQ(Big.terms().size(), 3u);

  LinearExpr Copy = Big;
  EXPECT_EQ(Copy, Big);
  EXPECT_EQ(Copy.hash(), Big.hash());
  Copy.addTerm(I, -1); // the copy owns its terms
  EXPECT_NE(Copy, Big);
  EXPECT_EQ(Big.coeff(I), 1);

  LinearExpr Small = LinearExpr::term(N);
  Small = Big; // inline target, heap source
  EXPECT_EQ(Small, Big);
  Small = LinearExpr::term(N); // heap target, inline source
  EXPECT_EQ(Small, LinearExpr::term(N));
  EXPECT_EQ(Small.hash(), LinearExpr::term(N).hash());

  LinearExpr Moved = std::move(Copy);
  EXPECT_EQ(Moved.coeff(J), 2);
  EXPECT_EQ(Moved.terms().size(), 2u);
  LinearExpr Target = LinearExpr::term(I);
  Target = std::move(Moved);
  EXPECT_EQ(termsOf(Target),
            (std::vector<LinearExpr::Term>{{J, 2}, {K, 3}}));
  const LinearExpr &Self = Target;
  Target = Self;
  EXPECT_EQ(termsOf(Target),
            (std::vector<LinearExpr::Term>{{J, 2}, {K, 3}}));

  // A spilled check keeps its canonical form through copies.
  CheckExpr C(Big, 10);
  CheckExpr D = C;
  EXPECT_EQ(C, D);
  EXPECT_EQ(C.hash(), D.hash());
  EXPECT_EQ(D.bound(), 14);
  EXPECT_EQ(D.expr().constantPart(), 0);
}

TEST_F(LinearExprTest, RandomEditsMatchAReferenceModel) {
  // Random edits over a pool of expressions, mirrored on sorted maps: the
  // terms, and the equality and hash against a freshly built copy, must
  // match after every step, across spills to the heap and shrinks back.
  for (const char *Name : {"k", "m", "p"})
    Syms.createScalar(Name, ScalarType::Int); // symbols 3, 4 and 5
  using Model = std::map<SymbolID, int64_t>;
  auto Add = [](Model &M, SymbolID S, int64_t C) {
    if ((M[S] += C) == 0)
      M.erase(S);
  };
  auto Build = [](const Model &M, int64_t Const) {
    LinearExpr E = LinearExpr::constant(Const);
    for (const auto &[S, C] : M)
      E.addTerm(S, C);
    return E;
  };
  std::mt19937 Rng(20);
  auto Pick = [&](int Lo, int Hi) {
    return std::uniform_int_distribution<int>(Lo, Hi)(Rng);
  };
  auto RandomModel = [&] {
    Model M;
    for (int K = Pick(0, 3); K-- > 0;)
      Add(M, SymbolID(Pick(0, 5)), Pick(-3, 3));
    return M;
  };

  constexpr size_t PoolSize = 4;
  std::vector<LinearExpr> Pool(PoolSize);
  std::vector<Model> Models(PoolSize);
  std::vector<int64_t> Consts(PoolSize, 0);
  for (int Step = 0; Step != 4000; ++Step) {
    size_t X = size_t(Pick(0, PoolSize - 1));
    size_t Y = size_t(Pick(0, PoolSize - 1));
    LinearExpr &E = Pool[X];
    Model &M = Models[X];
    switch (Pick(0, 8)) {
    case 0: {
      SymbolID S = SymbolID(Pick(0, 5));
      int64_t C = Pick(-3, 3);
      E.addTerm(S, C);
      if (C != 0)
        Add(M, S, C);
      break;
    }
    case 1: {
      SymbolID S = SymbolID(Pick(0, 5));
      int64_t Want = M.count(S) ? M[S] : 0;
      EXPECT_EQ(E.removeTerm(S), Want);
      M.erase(S);
      break;
    }
    case 2:
    case 3: {
      Model R = RandomModel();
      int64_t RC = Pick(-5, 5);
      bool Plus = Pick(0, 1);
      if (Plus)
        E += Build(R, RC);
      else
        E -= Build(R, RC);
      for (const auto &[S, C] : R)
        Add(M, S, Plus ? C : -C);
      Consts[X] += Plus ? RC : -RC;
      break;
    }
    case 4: {
      SymbolID S = SymbolID(Pick(0, 5));
      Model R = RandomModel();
      int64_t RC = Pick(-5, 5);
      E.substitute(S, Build(R, RC));
      if (M.count(S)) {
        int64_t C = M[S];
        M.erase(S);
        for (const auto &[T, D] : R)
          Add(M, T, C * D);
        Consts[X] += C * RC;
      }
      break;
    }
    case 5: {
      int64_t F = Pick(-2, 2);
      E = E.scaled(F);
      Model Scaled;
      if (F != 0)
        for (const auto &[S, C] : M)
          Scaled[S] = C * F;
      M = Scaled;
      Consts[X] *= F;
      break;
    }
    case 6:
      Pool[X] = Pool[Y];
      Models[X] = Models[Y];
      Consts[X] = Consts[Y];
      break;
    case 7: {
      LinearExpr Moved = std::move(Pool[Y]);
      Pool[Y] = LinearExpr();
      Pool[X] = std::move(Moved);
      Model MovedModel = std::move(Models[Y]);
      int64_t MovedConst = Consts[Y];
      Models[Y].clear();
      Consts[Y] = 0;
      Models[X] = std::move(MovedModel);
      Consts[X] = MovedConst;
      break;
    }
    case 8:
      E = E.symbolicPart();
      Consts[X] = 0;
      break;
    }
    for (size_t K = 0; K != PoolSize; ++K) {
      std::vector<LinearExpr::Term> Want(Models[K].begin(), Models[K].end());
      ASSERT_EQ(termsOf(Pool[K]), Want) << "step " << Step;
      ASSERT_EQ(Pool[K].constantPart(), Consts[K]) << "step " << Step;
      LinearExpr Fresh = Build(Models[K], Consts[K]);
      ASSERT_EQ(Pool[K], Fresh) << "step " << Step;
      ASSERT_EQ(Pool[K].hash(), Fresh.hash()) << "step " << Step;
      ASSERT_EQ(Pool[K].str(Syms), Fresh.str(Syms)) << "step " << Step;
    }
  }
}

TEST_F(LinearExprTest, CheckExprCanonicalisation) {
  // (i + 1 <= 10) canonicalises to range-expression i, bound 9.
  LinearExpr E = LinearExpr::term(I) + LinearExpr::constant(1);
  CheckExpr C(E, 10);
  EXPECT_EQ(C.expr().constantPart(), 0);
  EXPECT_EQ(C.expr().coeff(I), 1);
  EXPECT_EQ(C.bound(), 9);
}

TEST_F(LinearExprTest, CheckExprLowerBoundNegation) {
  // (i + 1 >= 4) becomes (-i <= -3), the paper's example.
  LinearExpr E = LinearExpr::term(I) + LinearExpr::constant(1);
  CheckExpr C = CheckExpr::fromLowerBound(E, 4);
  EXPECT_EQ(C.expr().coeff(I), -1);
  EXPECT_EQ(C.bound(), -3);
}

TEST_F(LinearExprTest, CheckExprCompileTime) {
  CheckExpr True(LinearExpr::constant(3), 5);
  EXPECT_TRUE(True.isCompileTimeConstant());
  EXPECT_TRUE(True.evaluatesToTrue());
  CheckExpr False(LinearExpr::constant(7), 5);
  EXPECT_TRUE(False.isCompileTimeConstant());
  EXPECT_FALSE(False.evaluatesToTrue());
  CheckExpr Symbolic(LinearExpr::term(I), 5);
  EXPECT_FALSE(Symbolic.isCompileTimeConstant());
}

} // namespace
