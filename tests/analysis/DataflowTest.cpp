#include "analysis/Dataflow.h"

#include "ir/IRBuilder.h"

#include <gtest/gtest.h>

using namespace nascent;

namespace {

/// A straight-line chain entry -> b1 -> b2 (ret).
struct Chain {
  Function F{"f"};
  BlockID B0, B1, B2;
  Chain() {
    IRBuilder B(F);
    BasicBlock *A = B.createBlock("b0");
    BasicBlock *C = B.createBlock("b1");
    BasicBlock *D = B.createBlock("b2");
    B0 = A->id();
    B1 = C->id();
    B2 = D->id();
    B.setInsertBlock(A);
    B.emitJump(B1);
    B.setInsertBlock(C);
    B.emitJump(B2);
    B.setInsertBlock(D);
    B.emitRet();
    F.recomputePreds();
  }
};

DenseBitVector bits(size_t N, std::initializer_list<size_t> Set) {
  DenseBitVector V(N);
  for (size_t B : Set)
    V.set(B);
  return V;
}

TEST(Dataflow, ForwardGenKillPropagation) {
  Chain C;
  DataflowProblem P;
  P.Dir = DataflowProblem::Direction::Forward;
  P.MeetOp = DataflowProblem::Meet::Intersect;
  P.UniverseSize = 4;
  std::vector<DenseBitVector> Gen = {bits(4, {0}), bits(4, {1}), bits(4, {})};
  std::vector<DenseBitVector> Kill = {bits(4, {}), bits(4, {0}), bits(4, {})};
  P.Gen = Gen;
  P.Kill = Kill;

  DataflowResult R = solveDataflow(C.F, P);
  EXPECT_EQ(R.Out[C.B0], bits(4, {0}));
  // b1 kills 0 and gens 1.
  EXPECT_EQ(R.In[C.B1], bits(4, {0}));
  EXPECT_EQ(R.Out[C.B1], bits(4, {1}));
  EXPECT_EQ(R.In[C.B2], bits(4, {1}));
}

TEST(Dataflow, IntersectAtMerge) {
  // Diamond where only one branch generates fact 0; intersect drops it.
  Function F("f");
  IRBuilder B(F);
  SymbolID Cond = F.symbols().createScalar("c", ScalarType::Bool);
  BasicBlock *E = B.createBlock("e");
  BasicBlock *T = B.createBlock("t");
  BasicBlock *El = B.createBlock("el");
  BasicBlock *J = B.createBlock("j");
  B.setInsertBlock(E);
  B.emitBr(Value::sym(Cond), T->id(), El->id());
  B.setInsertBlock(T);
  B.emitJump(J->id());
  B.setInsertBlock(El);
  B.emitJump(J->id());
  B.setInsertBlock(J);
  B.emitRet();
  F.recomputePreds();

  DataflowProblem P;
  P.UniverseSize = 2;
  std::vector<DenseBitVector> Gen = {bits(2, {1}), bits(2, {0}), bits(2, {}),
                                     bits(2, {})};
  std::vector<DenseBitVector> Kill(4, DenseBitVector(2));
  P.Gen = Gen;
  P.Kill = Kill;

  DataflowResult RI = solveDataflow(F, P);
  EXPECT_EQ(RI.In[J->id()], bits(2, {1})); // fact 0 only on the then path

  P.MeetOp = DataflowProblem::Meet::Union;
  DataflowResult RU = solveDataflow(F, P);
  EXPECT_EQ(RU.In[J->id()], bits(2, {0, 1}));
}

TEST(Dataflow, LoopReachesFixpoint) {
  // entry -> header <-> body; header -> exit. A fact genned in the body
  // is available at the header only via the back edge, so intersect with
  // the entry path must drop it; a fact genned before the loop survives.
  Function F("f");
  IRBuilder B(F);
  SymbolID Cond = F.symbols().createScalar("c", ScalarType::Bool);
  BasicBlock *E = B.createBlock("e");
  BasicBlock *H = B.createBlock("h");
  BasicBlock *Body = B.createBlock("body");
  BasicBlock *X = B.createBlock("x");
  B.setInsertBlock(E);
  B.emitJump(H->id());
  B.setInsertBlock(H);
  B.emitBr(Value::sym(Cond), Body->id(), X->id());
  B.setInsertBlock(Body);
  B.emitJump(H->id());
  B.setInsertBlock(X);
  B.emitRet();
  F.recomputePreds();

  DataflowProblem P;
  P.UniverseSize = 2;
  std::vector<DenseBitVector> Gen(4, DenseBitVector(2));
  std::vector<DenseBitVector> Kill(4, DenseBitVector(2));
  Gen[E->id()].set(0);
  Gen[Body->id()].set(1);
  P.Gen = Gen;
  P.Kill = Kill;

  DataflowResult R = solveDataflow(F, P);
  EXPECT_TRUE(R.In[H->id()].test(0));
  EXPECT_FALSE(R.In[H->id()].test(1));
  EXPECT_TRUE(R.In[X->id()].test(0));
  EXPECT_FALSE(R.In[X->id()].test(1));
}

TEST(Dataflow, BackwardAnticipation) {
  // Chain b0 -> b1 -> b2; fact 0 genned in b2, killed in b1: it is
  // anticipatable at b1's entry only if genned below the kill -- here the
  // kill stops it from reaching b0.
  Chain C;
  DataflowProblem P;
  P.Dir = DataflowProblem::Direction::Backward;
  P.UniverseSize = 2;
  std::vector<DenseBitVector> Gen = {bits(2, {}), bits(2, {}),
                                     bits(2, {0, 1})};
  std::vector<DenseBitVector> Kill = {bits(2, {}), bits(2, {0}), bits(2, {})};
  P.Gen = Gen;
  P.Kill = Kill;

  DataflowResult R = solveDataflow(C.F, P);
  EXPECT_TRUE(R.In[C.B2].test(0));
  EXPECT_TRUE(R.Out[C.B1].test(0));
  EXPECT_FALSE(R.In[C.B1].test(0)); // killed in b1
  EXPECT_TRUE(R.In[C.B1].test(1));  // transparent for fact 1
  EXPECT_TRUE(R.In[C.B0].test(1));
  EXPECT_FALSE(R.In[C.B0].test(0));
}

TEST(Dataflow, BackwardBoundaryAtExits) {
  // Nothing is anticipatable after a return: the boundary set is empty.
  Chain C;
  DataflowProblem P;
  P.Dir = DataflowProblem::Direction::Backward;
  P.UniverseSize = 1;
  std::vector<DenseBitVector> Sets(3, DenseBitVector(1));
  P.Gen = Sets;
  P.Kill = Sets;
  DataflowResult R = solveDataflow(C.F, P);
  EXPECT_FALSE(R.Out[C.B2].test(0));
  EXPECT_FALSE(R.In[C.B0].test(0));
}

} // namespace
