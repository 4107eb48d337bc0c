//===----------------------------------------------------------------------===//
///
/// \file
/// Unit tests of CheckContext: universe construction from the IR, kill
/// and gen transfer semantics (paper section 3.2), preheader entry facts,
/// and the availability/anticipatability solutions on small CFGs.
///
//===----------------------------------------------------------------------===//

#include "opt/CheckContext.h"

#include "analysis/CFGUtils.h"
#include "ir/IRBuilder.h"

#include <gtest/gtest.h>

#include <random>

using namespace nascent;

namespace {

/// Straight-line function:
///   n = 4; Check(n <= 10); t = n + 1 (kills nothing);
///   n = 5 (kills);         Check(n <= 12); ret
struct StraightLine {
  Module M;
  Function *F;
  SymbolID N, T;
  CheckID C10 = InvalidCheck, C12 = InvalidCheck;

  StraightLine() {
    F = M.createFunction("f");
    IRBuilder B(*F);
    N = F->symbols().createScalar("n", ScalarType::Int);
    T = F->symbols().createScalar("t", ScalarType::Int);
    B.setInsertBlock(B.createBlock("entry"));
    B.emitCopy(N, Value::intConst(4));
    B.emitCheck(CheckExpr(LinearExpr::term(N), 10));
    B.emitBinaryTo(T, Opcode::Add, Value::sym(N), Value::intConst(1));
    B.emitCopy(N, Value::intConst(5));
    B.emitCheck(CheckExpr(LinearExpr::term(N), 12));
    B.emitRet();
    F->recomputePreds();
  }
};

TEST(CheckContext, UniverseFromInstructions) {
  StraightLine S;
  CheckContext Ctx(*S.F, ImplicationMode::All);
  EXPECT_EQ(Ctx.universe().size(), 2u);
  EXPECT_EQ(Ctx.universe().numFamilies(), 1u); // same range-expression n
  // Instruction ids line up with the Check instructions.
  EXPECT_EQ(Ctx.idOf(0, 0), InvalidCheck); // the copy
  EXPECT_NE(Ctx.idOf(0, 1), InvalidCheck); // Check(n <= 10)
  EXPECT_EQ(Ctx.idOf(0, 2), InvalidCheck); // the add
  EXPECT_NE(Ctx.idOf(0, 4), InvalidCheck); // Check(n <= 12)
}

TEST(CheckContext, KillSemantics) {
  StraightLine S;
  CheckContext Ctx(*S.F, ImplicationMode::All);
  size_t U = Ctx.universe().size();

  DenseBitVector Bits(U, true);
  // The add defines t, which no check mentions: kills nothing.
  Ctx.applyKill(S.F->block(0)->instructions()[2], Bits);
  EXPECT_EQ(Bits.count(), U);
  // The copy defines n: kills every check.
  Ctx.applyKill(S.F->block(0)->instructions()[3], Bits);
  EXPECT_EQ(Bits.count(), 0u);
}

TEST(CheckContext, AvailGenClosesOverWeakerChecks) {
  StraightLine S;
  CheckContext Ctx(*S.F, ImplicationMode::All);
  CheckID C10 = Ctx.idOf(0, 1);
  CheckID C12 = Ctx.idOf(0, 4);

  DenseBitVector Bits(Ctx.universe().size());
  Ctx.applyAvailGen(0, 1, S.F->block(0)->instructions()[1], Bits);
  EXPECT_TRUE(Bits.test(C10));
  EXPECT_TRUE(Bits.test(C12)) << "a performed check gens weaker members";
}

TEST(CheckContext, AvailGenWithoutImplications) {
  StraightLine S;
  CheckContext Ctx(*S.F, ImplicationMode::None);
  CheckID C10 = Ctx.idOf(0, 1);
  CheckID C12 = Ctx.idOf(0, 4);
  DenseBitVector Bits(Ctx.universe().size());
  Ctx.applyAvailGen(0, 1, S.F->block(0)->instructions()[1], Bits);
  EXPECT_TRUE(Bits.test(C10));
  EXPECT_FALSE(Bits.test(C12));
}

TEST(CheckContext, AvailabilityBlockedByKill) {
  StraightLine S;
  CheckContext Ctx(*S.F, ImplicationMode::All);
  DataflowResult Avail = Ctx.solveAvailability();
  CheckID C12 = Ctx.idOf(0, 4);
  // The second check sits after a redefinition of n: nothing is
  // available at the block exit except its own gen (which survives).
  EXPECT_TRUE(Avail.Out[0].test(C12));
  EXPECT_FALSE(Avail.In[0].test(C12));
}

TEST(CheckContext, PreheaderFactsBecomeEntryBits) {
  // Two blocks: entry jumps to body; a fact asserts Check(n <= 10) at
  // the body entry.
  Module M;
  Function *F = M.createFunction("f");
  IRBuilder B(*F);
  SymbolID N = F->symbols().createScalar("n", ScalarType::Int);
  BasicBlock *Entry = B.createBlock("entry");
  BasicBlock *Body = B.createBlock("body");
  B.setInsertBlock(Entry);
  B.emitCopy(N, Value::intConst(4));
  B.emitJump(Body->id());
  B.setInsertBlock(Body);
  B.emitCheck(CheckExpr(LinearExpr::term(N), 10));
  B.emitCheck(CheckExpr(LinearExpr::term(N), 12));
  B.emitRet();
  F->recomputePreds();

  std::vector<PreheaderFact> Facts = {
      {Body->id(), CheckExpr(LinearExpr::term(N), 10)}};
  CheckContext Ctx(*F, ImplicationMode::All, Facts);

  CheckID C10 = Ctx.universe().find(CheckExpr(LinearExpr::term(N), 10));
  CheckID C12 = Ctx.universe().find(CheckExpr(LinearExpr::term(N), 12));
  ASSERT_NE(C10, InvalidCheck);
  ASSERT_NE(C12, InvalidCheck);
  // The fact covers the check itself and its weaker family member.
  EXPECT_TRUE(Ctx.genInBits(Body->id()).test(C10));
  EXPECT_TRUE(Ctx.genInBits(Body->id()).test(C12));
  EXPECT_FALSE(Ctx.genInBits(Entry->id()).test(C10));
}

TEST(CheckContext, FactClosureRespectsMode) {
  Module M;
  Function *F = M.createFunction("f");
  IRBuilder B(*F);
  SymbolID N = F->symbols().createScalar("n", ScalarType::Int);
  BasicBlock *Entry = B.createBlock("entry");
  BasicBlock *Body = B.createBlock("body");
  B.setInsertBlock(Entry);
  B.emitJump(Body->id());
  B.setInsertBlock(Body);
  B.emitCheck(CheckExpr(LinearExpr::term(N), 10));
  B.emitCheck(CheckExpr(LinearExpr::term(N), 12));
  B.emitRet();
  F->recomputePreds();

  std::vector<PreheaderFact> Facts = {
      {Body->id(), CheckExpr(LinearExpr::term(N), 10)}};
  // The LLS' mode (cross-family only) must not close over the weaker
  // same-family member.
  CheckContext Ctx(*F, ImplicationMode::CrossFamilyOnly, Facts);
  CheckID C10 = Ctx.universe().find(CheckExpr(LinearExpr::term(N), 10));
  CheckID C12 = Ctx.universe().find(CheckExpr(LinearExpr::term(N), 12));
  EXPECT_TRUE(Ctx.genInBits(Body->id()).test(C10));
  EXPECT_FALSE(Ctx.genInBits(Body->id()).test(C12));
}

TEST(CheckContext, AnticipatabilityGenIsFamilyRestricted) {
  StraightLine S;
  CheckContext Ctx(*S.F, ImplicationMode::All);
  DataflowResult Antic = Ctx.solveAnticipatability();
  CheckID C12 = Ctx.idOf(0, 4);
  // n is defined at the top of the block, then checked: at the block
  // entry nothing is anticipatable (the defs kill on the way back).
  EXPECT_FALSE(Antic.In[0].test(C12));
  (void)C12;
}

TEST(CheckContext, LocallyAnticipates) {
  StraightLine S;
  CheckContext Ctx(*S.F, ImplicationMode::All);
  CheckID C10 = Ctx.idOf(0, 1);
  CheckID C12 = Ctx.idOf(0, 4);
  // Check(n<=10) is generated before any kill? No: the block starts with
  // a definition of n, so nothing is locally anticipatable at entry.
  EXPECT_FALSE(Ctx.locallyAnticipates(0, C10));
  EXPECT_FALSE(Ctx.locallyAnticipates(0, C12));
}

/// A loop with a diamond in its body, over 240 distinct checks in 60
/// families (45 single-symbol expressions and 15 differences, four bounds
/// each), scattered with redefinitions of their symbols: a universe four
/// words wide.
struct WideUniverse {
  Module M;
  Function *F;

  WideUniverse() {
    F = M.createFunction("wide");
    IRBuilder B(*F);
    std::vector<SymbolID> Syms;
    for (int K = 0; K != 45; ++K)
      Syms.push_back(F->symbols().createScalar("s" + std::to_string(K),
                                               ScalarType::Int));
    SymbolID Cond = F->symbols().createScalar("c", ScalarType::Bool);
    std::vector<CheckExpr> Checks;
    for (int64_t Bound : {2, 5, 9, 14}) {
      for (SymbolID S : Syms)
        Checks.emplace_back(LinearExpr::term(S), Bound);
      for (int K = 0; K != 15; ++K) {
        LinearExpr E = LinearExpr::term(Syms[K]);
        E += LinearExpr::term(Syms[K + 15], -2);
        Checks.emplace_back(E, Bound);
      }
    }
    const char *Names[] = {"entry", "head", "body", "then",
                           "else",  "join", "latch", "exit"};
    std::vector<BasicBlock *> Blocks;
    for (const char *N : Names)
      Blocks.push_back(B.createBlock(N));
    std::mt19937 Rng(7);
    // Every check appears somewhere; each block also gets a few random
    // checks and redefinitions in random order.
    for (size_t K = 0; K != Checks.size(); ++K) {
      B.setInsertBlock(Blocks[K % Blocks.size()]);
      if (Rng() % 3 == 0)
        B.emitCopy(Syms[Rng() % Syms.size()], Value::intConst(1));
      B.emitCheck(Checks[K]);
      if (Rng() % 2 == 0)
        B.emitCheck(Checks[Rng() % Checks.size()]);
    }
    auto Term = [&](size_t K, auto Emit) {
      B.setInsertBlock(Blocks[K]);
      Emit();
    };
    Value C = Value::sym(Cond);
    Term(0, [&] { B.emitJump(Blocks[1]->id()); });
    Term(1, [&] { B.emitBr(C, Blocks[2]->id(), Blocks[7]->id()); });
    Term(2, [&] { B.emitBr(C, Blocks[3]->id(), Blocks[4]->id()); });
    Term(3, [&] { B.emitJump(Blocks[5]->id()); });
    Term(4, [&] { B.emitJump(Blocks[5]->id()); });
    Term(5, [&] { B.emitJump(Blocks[6]->id()); });
    Term(6, [&] { B.emitJump(Blocks[1]->id()); });
    Term(7, [&] { B.emitRet(); });
    F->recomputePreds();
  }
};

TEST(CheckContext, WideUniverseMatchesGraphAndNaiveWalks) {
  for (ImplicationMode Mode :
       {ImplicationMode::All, ImplicationMode::CrossFamilyOnly,
        ImplicationMode::None}) {
    SCOPED_TRACE(static_cast<int>(Mode));
    WideUniverse W;
    const Function &F = *W.F;
    CheckContext Ctx(F, Mode);
    const CheckUniverse &U = Ctx.universe();
    size_t N = U.size();
    ASSERT_EQ(N, 240u);

    // Closures: the row tables against the graph's per-check walks.
    CheckImplicationGraph CIG(U, Mode);
    std::vector<DenseBitVector> Closure, FamClosure;
    for (CheckID C = 0; C != N; ++C) {
      Closure.emplace_back(N);
      FamClosure.emplace_back(N);
      CIG.weakerClosure(C, Closure.back());
      CIG.weakerClosureSameFamily(C, FamClosure.back());
      EXPECT_TRUE(Ctx.weakerClosure(C) == Closure.back()) << C;
      EXPECT_TRUE(Ctx.weakerClosureSameFamily(C) == FamClosure.back()) << C;
    }

    // Block sets: a naive walk over the instructions.
    BitRows Kill(F.numBlocks(), N), AvailGen(F.numBlocks(), N);
    for (const auto &BB : F) {
      BlockID B = BB->id();
      const auto &Insts = BB->instructions();
      DenseBitVector Avail(N), Antic(N);
      for (size_t Idx = 0; Idx != Insts.size(); ++Idx) {
        if (Insts[Idx].Dest != InvalidSymbol)
          for (CheckID C : U.checksUsingSymbol(Insts[Idx].Dest)) {
            Kill[B].set(C);
            Avail.reset(C);
          }
        if (Insts[Idx].Op == Opcode::Check)
          Avail |= Closure[U.find(Insts[Idx].Check)];
      }
      AvailGen[B].assign(Avail);
      for (size_t Idx = Insts.size(); Idx-- > 0;) {
        if (Insts[Idx].Dest != InvalidSymbol)
          for (CheckID C : U.checksUsingSymbol(Insts[Idx].Dest))
            Antic.reset(C);
        if (Insts[Idx].Op == Opcode::Check)
          Antic |= FamClosure[U.find(Insts[Idx].Check)];
      }
      EXPECT_TRUE(Ctx.blockKill(B) == Kill[B]) << B;
      EXPECT_TRUE(Ctx.blockAnticGen(B) == Antic) << B;
    }

    // Availability gen only shows through the solve: the context's
    // solution equals one over the naive tables.
    DataflowProblem P;
    P.UniverseSize = N;
    P.Gen = &AvailGen;
    P.Kill = &Kill;
    DataflowResult Naive = solveDataflow(F, BlockOrder(F), P);
    DataflowResult Avail = Ctx.solveAvailability();
    EXPECT_EQ(Avail.Visits, Naive.Visits);
    for (BlockID B = 0; B != F.numBlocks(); ++B) {
      EXPECT_TRUE(Avail.In[B] == Naive.In[B]) << B;
      EXPECT_TRUE(Avail.Out[B] == Naive.Out[B]) << B;
    }
  }
}

} // namespace
