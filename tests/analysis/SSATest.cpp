#include "analysis/SSA.h"

#include "TestHelpers.h"
#include "analysis/Dominators.h"

#include <gtest/gtest.h>

using namespace nascent;
using namespace nascent::test;

namespace {

/// Finds the symbol named \p Name in \p F.
SymbolID sym(const Function &F, const char *Name) {
  SymbolID S = F.symbols().lookup(Name);
  EXPECT_NE(S, InvalidSymbol) << Name;
  return S;
}

TEST(SSA, StraightLineUsesResolveToDefs) {
  CompileResult R = compileNaive(R"(
program p
  integer x, y
  x = 1
  y = x + 2
  x = y + x
  print x
end program
)");
  Function *F = R.M->entry();
  F->recomputePreds();
  DominatorTree DT(*F);
  SSA S(*F, DT);

  // Walk the entry block: find defs of x and the use sites.
  BlockID B = F->entryBlock();
  const auto &Insts = F->block(B)->instructions();
  SymbolID X = sym(*F, "x");

  std::vector<SSAValueID> DefsOfX;
  std::vector<SSAValueID> UsesOfX;
  for (size_t I = 0; I != Insts.size(); ++I) {
    if (Insts[I].Dest == X)
      DefsOfX.push_back(S.defOf(B, I));
    SSAValueID U = S.useOfSymbol(B, I, X);
    if (U != InvalidSSAValue)
      UsesOfX.push_back(U);
  }
  ASSERT_EQ(DefsOfX.size(), 2u);
  ASSERT_GE(UsesOfX.size(), 2u);
  // The first use of x (in y = x + 2) resolves to the first def; the
  // print resolves to the second def.
  EXPECT_EQ(UsesOfX.front(), DefsOfX[0]);
  EXPECT_EQ(UsesOfX.back(), DefsOfX[1]);
}

TEST(SSA, PhiAtJoin) {
  CompileResult R = compileNaive(R"(
program p
  integer x
  logical c
  c = true
  if (c) then
    x = 1
  else
    x = 2
  end if
  print x
end program
)");
  Function *F = R.M->entry();
  F->recomputePreds();
  DominatorTree DT(*F);
  SSA S(*F, DT);

  SymbolID X = sym(*F, "x");
  // Exactly one phi for x at a join block, with two distinct incoming
  // instruction definitions.
  unsigned PhisForX = 0;
  for (BlockID B = 0; B != F->numBlocks(); ++B) {
    for (const SSAPhi &P : S.phisIn(B)) {
      if (P.Sym != X)
        continue;
      ++PhisForX;
      ASSERT_EQ(S.incoming(P).size(), 2u);
      EXPECT_NE(S.incoming(P)[0], S.incoming(P)[1]);
      for (SSAValueID V : S.incoming(P))
        EXPECT_EQ(S.def(V).K, SSADef::Kind::Inst);
    }
  }
  EXPECT_EQ(PhisForX, 1u);
}

TEST(SSA, LoopHeaderPhi) {
  CompileResult R = compileNaive(R"(
program p
  integer i, s
  s = 0
  do i = 1, 5
    s = s + i
  end do
  print s
end program
)");
  Function *F = R.M->entry();
  F->recomputePreds();
  DominatorTree DT(*F);
  SSA S(*F, DT);

  const DoLoopInfo &DL = F->doLoops()[0];
  SymbolID I = DL.IndexVar;
  // The header merges the preheader init and the latch increment of i.
  bool FoundHeaderPhi = false;
  for (const SSAPhi &P : S.phisIn(DL.Header)) {
    if (P.Sym != I)
      continue;
    FoundHeaderPhi = true;
    ASSERT_EQ(S.incoming(P).size(), 2u);
    // One incoming from the preheader copy, one from the latch add.
    std::vector<SSADef::Kind> Kinds;
    std::vector<BlockID> Blocks;
    for (SSAValueID V : S.incoming(P)) {
      Kinds.push_back(S.def(V).K);
      Blocks.push_back(S.def(V).Block);
    }
    EXPECT_TRUE((Blocks[0] == DL.Preheader && Blocks[1] == DL.Latch) ||
                (Blocks[0] == DL.Latch && Blocks[1] == DL.Preheader));
  }
  EXPECT_TRUE(FoundHeaderPhi);

  // Uses of i inside the body resolve to the header phi.
  const auto &BodyInsts = F->block(DL.BodyEntry)->instructions();
  bool CheckedUse = false;
  for (size_t Idx = 0; Idx != BodyInsts.size(); ++Idx) {
    SSAValueID U = S.useOfSymbol(DL.BodyEntry, Idx, I);
    if (U == InvalidSSAValue)
      continue;
    EXPECT_EQ(S.def(U).K, SSADef::Kind::Phi);
    EXPECT_EQ(S.def(U).Block, DL.Header);
    CheckedUse = true;
  }
  EXPECT_TRUE(CheckedUse);
}

TEST(SSA, ParamsAndUninitialisedGetEntryValues) {
  CompileResult R = compileNaive(R"(
program p
  integer u
  print u
end program
)");
  Function *F = R.M->entry();
  F->recomputePreds();
  DominatorTree DT(*F);
  SSA S(*F, DT);
  SymbolID U = sym(*F, "u");
  const auto &Insts = F->block(0)->instructions();
  for (size_t I = 0; I != Insts.size(); ++I) {
    SSAValueID V = S.useOfSymbol(0, I, U);
    if (V == InvalidSSAValue)
      continue;
    EXPECT_EQ(S.def(V).K, SSADef::Kind::Entry);
    EXPECT_EQ(S.def(V).Sym, U);
  }
}

TEST(SSA, CheckOperandsAreUses) {
  CompileResult R = compileNaive(R"(
program p
  real a(10)
  integer i
  i = 3
  a(i) = 1.0
end program
)");
  Function *F = R.M->entry();
  F->recomputePreds();
  DominatorTree DT(*F);
  SSA S(*F, DT);
  SymbolID I = sym(*F, "i");
  const auto &Insts = F->block(0)->instructions();
  bool SawCheckUse = false;
  for (size_t Idx = 0; Idx != Insts.size(); ++Idx) {
    if (Insts[Idx].Op != Opcode::Check)
      continue;
    SSAValueID V = S.useOfSymbol(0, Idx, I);
    ASSERT_NE(V, InvalidSSAValue);
    EXPECT_EQ(S.def(V).K, SSADef::Kind::Inst);
    SawCheckUse = true;
  }
  EXPECT_TRUE(SawCheckUse);
}

} // namespace
