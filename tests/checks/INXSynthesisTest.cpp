//===----------------------------------------------------------------------===//
///
/// \file
/// INX synthesis tests: checks are rewritten into induction-expression
/// form (c*h + base), basic loop variables are materialised, and the
/// rewritten program behaves identically to the original.
///
//===----------------------------------------------------------------------===//

#include "checks/INXSynthesis.h"

#include "TestHelpers.h"
#include "ir/Verifier.h"
#include "suite/Suite.h"

#include <gtest/gtest.h>

using namespace nascent;
using namespace nascent::test;

namespace {

/// Counts checks whose range-expression mentions \p Sym.
unsigned checksUsing(const Function &F, SymbolID Sym) {
  unsigned N = 0;
  for (const auto &BB : F)
    for (const Instruction &I : BB->instructions())
      if (I.Op == Opcode::Check && I.Check.expr().references(Sym))
        ++N;
  return N;
}

/// Counts the INX rewrites of one kind in the lifecycle event log.
size_t countRewrites(const obs::ProvenanceRecorder &PR,
                     obs::JustificationId Kind) {
  size_t N = 0;
  for (const obs::LifecycleEvent &E : PR.events())
    if (E.Kind == obs::LifecycleKind::Strengthened &&
        E.Pass == obs::LifecyclePass::INXSynthesis && E.Justification == Kind)
      ++N;
  return N;
}

TEST(INXSynthesis, RewritesLinearChecksOverBasicVariable) {
  CompileResult R = compileNaive(R"(
program p
  integer n, i
  real a(100)
  n = 20
  do i = 1, n
    a(2 * i + 3) = 0.0
  end do
  print a(5)
end program
)");
  Function *F = R.M->entry();
  SymbolID I = F->symbols().lookup("i");
  ASSERT_GT(checksUsing(*F, I), 0u);

  obs::ProvenanceRecorder PR;
  INXStats Stats = synthesizeINXChecks(*F, &PR);
  EXPECT_EQ(Stats.BasicVarsMaterialized, 1u);
  EXPECT_GT(countRewrites(PR, obs::JustificationId::InxRewriteLinear), 0u);

  // The loop-body checks now use the basic variable h, not i.
  const DoLoopInfo &DL = F->doLoops()[0];
  ASSERT_NE(DL.BasicVar, InvalidSymbol);
  EXPECT_EQ(checksUsing(*F, I), 0u);
  EXPECT_GT(checksUsing(*F, DL.BasicVar), 0u);

  // The subscript 2*i+3 with i = 1+h is 2*h+5: the upper check becomes
  // (2*h <= 95) in canonical form.
  bool Found = false;
  for (const auto &BB : *F)
    for (const Instruction &Ins : BB->instructions())
      if (Ins.Op == Opcode::Check &&
          Ins.Check.expr().coeff(DL.BasicVar) == 2 &&
          Ins.Check.bound() == 95)
        Found = true;
  EXPECT_TRUE(Found);

  DiagnosticEngine D;
  EXPECT_TRUE(verifyFunction(*F, D)) << D.render();
}

TEST(INXSynthesis, BehaviourUnchanged) {
  const char *Source = R"(
program p
  integer n, i, j, k
  real a(64), b(64)
  n = 7
  k = 3
  do i = 1, n
    k = k + 2
    a(k) = a(k) + 1.0
    do j = i, n
      b(j) = b(j) + a(j) * 0.5
    end do
  end do
  print a(5)
  print b(6)
end program
)";
  CompileResult Plain = compileNaive(Source);
  ExecResult PlainRun = interpret(*Plain.M);

  CompileResult R = compileNaive(Source);
  synthesizeINXChecks(*R.M->entry());
  ExecResult InxRun = interpret(*R.M);

  EXPECT_EQ(PlainRun.St, InxRun.St);
  EXPECT_EQ(PlainRun.Output, InxRun.Output);
  // Check counts are identical: the rewrite is one-for-one.
  EXPECT_EQ(PlainRun.DynChecks, InxRun.DynChecks);
}

TEST(INXSynthesis, AccumulatorBecomesLinear) {
  // The checks on a(k) with k = k + 2 per iteration are not linear in
  // any program variable syntactically, but become 2*h + c after
  // synthesis -- the INX advantage the paper studies.
  CompileResult R = compileNaive(R"(
program p
  integer n, i, k
  real a(100)
  n = 10
  k = 0
  do i = 1, n
    k = k + 2
    a(k) = 1.0
  end do
  print a(2)
end program
)");
  Function *F = R.M->entry();
  obs::ProvenanceRecorder PR;
  synthesizeINXChecks(*F, &PR);
  EXPECT_GT(countRewrites(PR, obs::JustificationId::InxRewriteLinear), 0u);
  const DoLoopInfo &DL = F->doLoops()[0];
  bool Found = false;
  for (const auto &BB : *F)
    for (const Instruction &Ins : BB->instructions())
      if (Ins.Op == Opcode::Check &&
          Ins.Check.expr().coeff(DL.BasicVar) == 2)
        Found = true;
  EXPECT_TRUE(Found);
}

TEST(INXSynthesis, RecomputedInvariantUsesSnapshot) {
  // base is assigned inside the loop from loop-entry values: the check on
  // xx(base + 1) rewrites to a snapshot-based invariant expression.
  CompileResult R = compileNaive(R"(
program p
  integer n, i, base, m
  real xx(50)
  n = 6
  m = int(xx(1)) + 2
  do i = 1, n
    m = m + 0
    base = m * 1
    xx(base + 1) = 0.0
  end do
  print xx(3)
end program
)");
  Function *F = R.M->entry();
  SymbolID Base = F->symbols().lookup("base");
  obs::ProvenanceRecorder PR;
  INXStats Stats = synthesizeINXChecks(*F, &PR);
  // The checks no longer reference base (killed every iteration) --
  // they reference a loop-entry snapshot of m's value instead (m itself
  // is also assigned inside the loop).
  EXPECT_EQ(checksUsing(*F, Base), 0u);
  EXPECT_GT(countRewrites(PR, obs::JustificationId::InxRewriteInvariant), 0u);
  EXPECT_GT(Stats.SnapshotsInserted, 0u);

  ExecResult E = interpret(*R.M);
  EXPECT_EQ(E.St, ExecResult::Status::Ok) << E.FaultMessage;
}

TEST(INXSynthesis, IndirectSubscriptsStayPRX) {
  CompileResult R = compileNaive(R"(
program p
  integer n, i, t
  integer idx(20)
  real a(20)
  n = 8
  do i = 1, n
    idx(i) = i
    t = idx(i)
    a(t) = 0.0
  end do
  print a(3)
end program
)");
  Function *F = R.M->entry();
  SymbolID T = F->symbols().lookup("t");
  unsigned Before = checksUsing(*F, T);
  ASSERT_GT(Before, 0u);
  synthesizeINXChecks(*F);
  // Checks on the loaded subscript cannot be rewritten.
  EXPECT_EQ(checksUsing(*F, T), Before);
}

TEST(INXSynthesis, OverflowingCoefficientStaysPRX) {
  // The subscript's coefficient 2^62 times the step 4 passes 2^63: the
  // induction form cannot be exact, so both checks keep their PRX form
  // instead of a wrapped one.
  CompileResult R = compileNaive(R"(
program p
  integer n, i
  integer a(10)
  n = 3
  do i = 1, n, 4
    a(4611686018427387904 * i) = 0
  end do
end program
)");
  Function *F = R.M->entry();
  std::vector<CheckExpr> Before;
  for (const auto &BB : *F)
    for (const Instruction &I : BB->instructions())
      if (I.Op == Opcode::Check)
        Before.push_back(I.Check);
  ASSERT_EQ(Before.size(), 2u);

  obs::ProvenanceRecorder PR;
  INXStats Stats = synthesizeINXChecks(*F, &PR);
  EXPECT_EQ(Stats.ChecksSeen, 2u);
  EXPECT_EQ(countRewrites(PR, obs::JustificationId::InxRewriteLinear), 0u);
  EXPECT_EQ(countRewrites(PR, obs::JustificationId::InxRewriteInvariant), 0u);
  std::vector<CheckExpr> After;
  for (const auto &BB : *F)
    for (const Instruction &I : BB->instructions())
      if (I.Op == Opcode::Check)
        After.push_back(I.Check);
  EXPECT_EQ(After, Before);
}

TEST(INXSynthesis, WholeSuiteStaysCorrect) {
  // Every suite program must behave identically after INX synthesis.
  for (const SuiteProgram &P : benchmarkSuite()) {
    CompileResult Plain = compileNaive(P.Source);
    ExecResult PlainRun = interpret(*Plain.M);

    CompileResult R = compileNaive(P.Source, CheckSource::INX);
    ExecResult InxRun = interpret(*R.M);
    EXPECT_EQ(PlainRun.St, InxRun.St) << P.Name;
    EXPECT_EQ(PlainRun.Output, InxRun.Output) << P.Name;
    EXPECT_EQ(PlainRun.DynChecks, InxRun.DynChecks) << P.Name;
  }
}

} // namespace
