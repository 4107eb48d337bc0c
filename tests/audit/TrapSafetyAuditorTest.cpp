//===----------------------------------------------------------------------===//
///
/// \file
/// Tests of the trap-safety auditor: it must accept every placement the
/// optimizer actually produces (tested via TestHelpers on the whole
/// suite), reject hand-made unsound placements in both directions, and
/// the CIG lint must catch malformed implication structures.
///
//===----------------------------------------------------------------------===//

#include "TestHelpers.h"
#include "audit/CigConsistencyLint.h"
#include "audit/TrapSafetyAuditor.h"
#include "ir/IRBuilder.h"
#include "suite/Suite.h"

#include <gtest/gtest.h>

using namespace nascent;
using namespace nascent::test;

namespace {

/// Counts findings with the given rule.
size_t countRule(const AuditReport &R, AuditRule Rule) {
  size_t N = 0;
  for (const AuditFinding &F : R.findings())
    if (F.Rule == Rule)
      ++N;
  return N;
}

/// Builds:  entry{ n0 = copy 5; jump next }  next{ check(n0 <= 10); ret }
/// over a parameter p so checks are not compile-time constant.
std::unique_ptr<Function> makeBaseFunction(SymbolID &P, SymbolID &I) {
  auto F = std::make_unique<Function>("f");
  IRBuilder B(*F);
  P = F->symbols().createScalar("p", ScalarType::Int, /*IsParam=*/true);
  I = F->symbols().createScalar("i", ScalarType::Int);
  F->params().push_back(P);
  BasicBlock *Entry = B.createBlock("entry");
  BasicBlock *Next = B.createBlock("next");
  B.setInsertBlock(Entry);
  B.emitCopy(I, Value::intConst(5));
  B.emitJump(Next->id());
  B.setInsertBlock(Next);
  B.emitCheck(CheckExpr(LinearExpr::term(I), 10));
  B.emitRet();
  return F;
}

} // namespace

TEST(TrapSafetyAuditor, IdentityPairIsClean) {
  SymbolID P, I;
  std::unique_ptr<Function> Orig = makeBaseFunction(P, I);
  std::unique_ptr<Function> Opt = Orig->clone();
  AuditReport R;
  auditFunctionPair(*Orig, *Opt, AuditOptions{}, R);
  EXPECT_TRUE(R.clean()) << R.render();
  EXPECT_EQ(R.stats().ChecksAudited, 1u);
  EXPECT_EQ(R.stats().OriginalChecksCovered, 1u);
}

TEST(TrapSafetyAuditor, CatchesMisHoistedNonAnticipatedCheck) {
  SymbolID P, I;
  std::unique_ptr<Function> Orig = makeBaseFunction(P, I);
  std::unique_ptr<Function> Opt = Orig->clone();
  // Hoist check(i <= 10) above the copy that defines i: at the entry's
  // start the check is not anticipated (the definition kills it), so the
  // optimized program can trap on the stale value of i where the original
  // never would.
  Instruction Hoisted;
  Hoisted.Op = Opcode::Check;
  Hoisted.Check = CheckExpr(LinearExpr::term(I), 10);
  Opt->block(0)->insertAt(0, Hoisted);
  AuditReport R;
  auditFunctionPair(*Orig, *Opt, AuditOptions{}, R);
  EXPECT_FALSE(R.clean());
  EXPECT_EQ(countRule(R, AuditRule::CheckNotJustified), 1u) << R.render();
}

TEST(TrapSafetyAuditor, AcceptsAnticipatedHoist) {
  SymbolID P, I;
  std::unique_ptr<Function> Orig = makeBaseFunction(P, I);
  std::unique_ptr<Function> Opt = Orig->clone();
  // Hoisting over the parameter p (never defined) into the entry block is
  // fine: check(p <= 3) is not anticipated... but hoisting the body check
  // after the definition of i is. Insert check(i <= 10) right after the
  // copy: anticipated there, so justified.
  Instruction Hoisted;
  Hoisted.Op = Opcode::Check;
  Hoisted.Check = CheckExpr(LinearExpr::term(I), 10);
  Opt->block(0)->insertAt(1, Hoisted);
  AuditReport R;
  auditFunctionPair(*Orig, *Opt, AuditOptions{}, R);
  EXPECT_TRUE(R.clean()) << R.render();
  EXPECT_GE(R.stats().JustifiedAnticipated, 1u);
}

TEST(TrapSafetyAuditor, CatchesStrengthenedBeyondAnticipated) {
  SymbolID P, I;
  std::unique_ptr<Function> Orig = makeBaseFunction(P, I);
  std::unique_ptr<Function> Opt = Orig->clone();
  // Replace check(i <= 10) by check(i <= 10 and p <= 0): a different
  // family that nothing in the original anticipates.
  Instruction &Check = Opt->block(1)->instructions()[0];
  Check.Check = CheckExpr(LinearExpr::term(P), 0);
  AuditReport R;
  auditFunctionPair(*Orig, *Opt, AuditOptions{}, R);
  // Direction A flags the unjustified check. Direction B stays quiet: the
  // original check(i <= 10) is interval-discharged (i is the constant 5),
  // so no trap is lost even though an unjustified one was added.
  EXPECT_FALSE(R.clean());
  EXPECT_EQ(countRule(R, AuditRule::CheckNotJustified), 1u) << R.render();
  EXPECT_EQ(countRule(R, AuditRule::LostCheck), 0u) << R.render();
}

TEST(TrapSafetyAuditor, CatchesLostCheck) {
  SymbolID P, I;
  std::unique_ptr<Function> Orig = makeBaseFunction(P, I);
  std::unique_ptr<Function> Opt = Orig->clone();
  // Delete the only check: p is a parameter, so nothing proves it in
  // range and the original's trap on i > 10 ... i is the constant 5 here,
  // so use a check over p that intervals cannot discharge.
  Instruction &Check = Orig->block(1)->instructions()[0];
  Check.Check = CheckExpr(LinearExpr::term(P), 10);
  Opt = Orig->clone();
  Opt->block(1)->instructions().erase(Opt->block(1)->instructions().begin());
  AuditReport R;
  auditFunctionPair(*Orig, *Opt, AuditOptions{}, R);
  EXPECT_FALSE(R.clean());
  EXPECT_EQ(countRule(R, AuditRule::LostCheck), 1u) << R.render();
}

TEST(TrapSafetyAuditor, AcceptsDeletionCoveredByStrongerCheck) {
  SymbolID P, I;
  std::unique_ptr<Function> Orig = makeBaseFunction(P, I);
  // Original: check(p <= 3); check(p <= 10) back to back. Deleting the
  // weaker one is sound: the stronger one fires first.
  Instruction First;
  First.Op = Opcode::Check;
  First.Check = CheckExpr(LinearExpr::term(P), 3);
  Orig->block(1)->insertAt(0, First);
  Instruction &Second = Orig->block(1)->instructions()[1];
  Second.Check = CheckExpr(LinearExpr::term(P), 10);
  std::unique_ptr<Function> Opt = Orig->clone();
  Opt->block(1)->instructions().erase(
      Opt->block(1)->instructions().begin() + 1);
  AuditReport R;
  auditFunctionPair(*Orig, *Opt, AuditOptions{}, R);
  EXPECT_TRUE(R.clean()) << R.render();
  EXPECT_EQ(R.stats().OriginalChecksCovered, 2u);
}

TEST(TrapSafetyAuditor, CatchesCondCheckOutsidePreheader) {
  SymbolID P, I;
  std::unique_ptr<Function> Orig = makeBaseFunction(P, I);
  std::unique_ptr<Function> Opt = Orig->clone();
  Instruction CC;
  CC.Op = Opcode::CondCheck;
  CC.Check = CheckExpr(LinearExpr::term(P), 10);
  CC.Guards = {CheckExpr(LinearExpr::term(P), 100)};
  Opt->block(0)->insertAt(0, CC);
  AuditReport R;
  auditFunctionPair(*Orig, *Opt, AuditOptions{}, R);
  EXPECT_EQ(countRule(R, AuditRule::CondCheckNotJustified), 1u)
      << R.render();
}

TEST(TrapSafetyAuditor, CatchesUnjustifiedTrapAndReplacedInstruction) {
  SymbolID P, I;
  std::unique_ptr<Function> Orig = makeBaseFunction(P, I);
  std::unique_ptr<Function> Opt = Orig->clone();
  // Truncate the next block into an unconditional trap: nothing in the
  // original proves a check must fail there.
  auto &Insts = Opt->block(1)->instructions();
  Insts.clear();
  Instruction T;
  T.Op = Opcode::Trap;
  Insts.push_back(T);
  AuditReport R;
  auditFunctionPair(*Orig, *Opt, AuditOptions{}, R);
  EXPECT_EQ(countRule(R, AuditRule::TrapNotJustified), 1u) << R.render();
}

TEST(TrapSafetyAuditor, PipelineAuditsSuiteCleanUnderEveryScheme) {
  // The full 270-configuration sweep lives in examples/sweep (label
  // check-audit); here a representative slice keeps unit runs fast.
  const SuiteProgram *P = &benchmarkSuite()[0];
  for (PlacementScheme Scheme :
       {PlacementScheme::LLS, PlacementScheme::ALL, PlacementScheme::SE,
        PlacementScheme::MCM, PlacementScheme::AI}) {
    PipelineOptions PO;
    PO.Opt.Scheme = Scheme;
    PO.Audit = true;
    CompileResult R = compileSource(P->Source, PO);
    ASSERT_TRUE(R.Success) << R.Diags.render();
    EXPECT_TRUE(R.Audit.clean())
        << placementSchemeName(Scheme) << ":\n"
        << R.Audit.render();
    EXPECT_GT(R.Audit.stats().ChecksAudited +
                  R.Audit.stats().CondChecksAudited,
              0u);
  }
}

TEST(CigConsistencyLint, AcceptsWellFormedUniverse) {
  CheckUniverse U;
  LinearExpr N = LinearExpr::term(SymbolID(0));
  CheckID A = U.intern(CheckExpr(N, 3));
  CheckID B = U.intern(CheckExpr(N, 10));
  CheckImplicationGraph CIG(U);
  CIG.addImplication(A, B);
  AuditReport R;
  EXPECT_EQ(lintCheckImplicationGraph(U, CIG, "t", R), 0u) << R.render();
}

TEST(CigConsistencyLint, FlagsNegativeWeightCycle) {
  CheckUniverse U;
  CheckID A = U.intern(CheckExpr(LinearExpr::term(SymbolID(0)), 0));
  CheckID B = U.intern(CheckExpr(LinearExpr::term(SymbolID(1)), 0));
  CheckImplicationGraph CIG(U);
  CIG.addFamilyEdge(U.familyOf(A), U.familyOf(B), -1);
  CIG.addFamilyEdge(U.familyOf(B), U.familyOf(A), 0);
  AuditReport R;
  EXPECT_GT(lintCheckImplicationGraph(U, CIG, "t", R), 0u);
  EXPECT_EQ(countRule(R, AuditRule::CigNegativeCycle), 1u) << R.render();
}
