//===----------------------------------------------------------------------===//
///
/// \file
/// Preheader-insertion tests (LI and LLS): Figure 6 hoisting, guard
/// semantics on zero-trip loops, multi-level re-hoisting, triangular
/// loops, descending loops, and the early-return soundness restriction
/// on loop-limit substitution.
///
//===----------------------------------------------------------------------===//

#include "TestHelpers.h"

#include <gtest/gtest.h>

using namespace nascent;
using namespace nascent::test;

namespace {

unsigned countCondChecks(const Module &M) {
  unsigned N = 0;
  for (const Function *F : M.functions())
    for (const auto &BB : *F)
      for (const Instruction &I : BB->instructions())
        if (I.Op == Opcode::CondCheck)
          ++N;
  return N;
}

TEST(PreheaderInsertion, Figure6HoistsBothChecks) {
  const char *Src = R"(
program p
  real a(10)
  integer n, j, k
  n = 4
  k = 2
  do j = 1, 2 * n
    a(k) = a(k) + 1.0
    a(j) = a(j) * 2.0
  end do
  print a(2)
end program
)";
  ExecResult Naive = interpret(*compileNaive(Src).M);
  CompileResult LLS = compileWithScheme(Src, PlacementScheme::LLS);
  ExecResult LLSRun = interpret(*LLS.M);
  expectBehaviorPreserved(Naive, LLSRun, "LLS fig6");

  // All per-iteration checks disappear; only the hoisted conditional
  // checks execute (upper bounds for k and for the substituted 2n; the
  // constant lower bounds fold at compile time).
  EXPECT_GT(Naive.DynChecks, 8 * 4u);
  EXPECT_LE(LLSRun.DynChecks, 4u);
  EXPECT_EQ(LLSRun.DynChecks, LLSRun.DynCondChecks);
  EXPECT_GT(countCondChecks(*LLS.M), 0u);
  // Four conditional checks are hoisted: both bounds of the invariant
  // a(k), and both bounds of a(j) through loop-limit substitution.
  EXPECT_EQ(decisions(LLS, obs::LifecycleKind::Inserted,
                      obs::LifecyclePass::PreheaderInsertion),
            4u);
  EXPECT_EQ(decisionsWhy(LLS, obs::JustificationId::HoistedSubstituted), 2u);
  EXPECT_EQ(decisionsWhy(LLS, obs::JustificationId::HoistedInvariant), 2u);
}

TEST(PreheaderInsertion, LIHoistsOnlyInvariant) {
  const char *Src = R"(
program p
  real a(10)
  integer n, j, k
  n = 6
  k = 2
  do j = 1, n
    a(k) = a(k) + 1.0
    a(j) = a(j) * 2.0
  end do
  print a(2)
end program
)";
  ExecResult Naive = interpret(*compileNaive(Src).M);
  CompileResult LI = compileWithScheme(Src, PlacementScheme::LI);
  ExecResult LIRun = interpret(*LI.M);
  expectBehaviorPreserved(Naive, LIRun, "LI");
  CompileResult LLS = compileWithScheme(Src, PlacementScheme::LLS);
  ExecResult LLSRun = interpret(*LLS.M);
  // LI removes the a(k) checks but keeps the linear a(j) checks; LLS
  // removes both.
  EXPECT_LT(LIRun.DynChecks, Naive.DynChecks);
  EXPECT_LT(LLSRun.DynChecks, LIRun.DynChecks);
}

TEST(PreheaderInsertion, ZeroTripLoopGuardPreventsTrap) {
  // The loop never executes and its body would trap if it did (k = 42
  // out of bounds); the guard on the hoisted check must keep the
  // optimized program trap-free.
  const char *Src = R"(
program p
  real a(10)
  integer n, j, k
  n = 0
  k = 42
  do j = 1, n
    a(k) = 1.0
  end do
  print 7
end program
)";
  ExecResult Naive = interpret(*compileNaive(Src).M);
  ASSERT_EQ(Naive.St, ExecResult::Status::Ok);
  for (PlacementScheme S : {PlacementScheme::LI, PlacementScheme::LLS,
                            PlacementScheme::ALL}) {
    CompileResult R = compileWithScheme(Src, S);
    ExecResult E = interpret(*R.M);
    expectBehaviorPreserved(Naive, E, placementSchemeName(S));
  }
}

TEST(PreheaderInsertion, ZeroTripDoesNotLeakAvailabilityPastLoop) {
  // A zero-trip loop is followed by an access with the same checks; the
  // hoisted conditional check must NOT make the post-loop check
  // "available" (the guard was false, nothing was checked).
  const char *Src = R"(
program p
  real a(10)
  integer n, j, k
  n = 0
  k = 42
  do j = 1, n
    a(k) = 1.0
  end do
  print 1
  a(k) = 2.0
  print 2
end program
)";
  ExecResult Naive = interpret(*compileNaive(Src).M);
  ASSERT_EQ(Naive.St, ExecResult::Status::Trapped);
  for (PlacementScheme S :
       {PlacementScheme::LI, PlacementScheme::LLS, PlacementScheme::ALL}) {
    CompileResult R = compileWithScheme(Src, S);
    ExecResult E = interpret(*R.M);
    EXPECT_EQ(E.St, ExecResult::Status::Trapped)
        << placementSchemeName(S)
        << ": the post-loop violation must still be caught";
    expectBehaviorPreserved(Naive, E, placementSchemeName(S));
  }
}

TEST(PreheaderInsertion, RehoistsThroughRectangularNest) {
  const char *Src = R"(
program p
  real a(40)
  integer n, i, j, s
  n = 6
  s = 0
  do i = 1, n
    do j = 1, n
      s = s + int(a(i + j))
    end do
  end do
  print s
end program
)";
  ExecResult Naive = interpret(*compileNaive(Src).M);
  CompileResult LLS = compileWithScheme(Src, PlacementScheme::LLS);
  ExecResult E = interpret(*LLS.M);
  expectBehaviorPreserved(Naive, E, "LLS nest");
  // After two levels of substitution the check lands in the outermost
  // preheader: a constant number of dynamic checks, not O(n) or O(n^2).
  EXPECT_LE(E.DynChecks, 4u);
  EXPECT_EQ(decisions(LLS, obs::LifecycleKind::Moved,
                      obs::LifecyclePass::PreheaderInsertion),
            2u);
  EXPECT_EQ(decisionsWhy(LLS, obs::JustificationId::RehoistedSubstituted),
            2u);
}

TEST(PreheaderInsertion, TriangularLoopKeepsPerOuterChecks) {
  const char *Src = R"(
program p
  real a(40)
  integer n, i, j, s
  n = 8
  s = 0
  do i = 1, n
    do j = 1, i
      s = s + int(a(j))
    end do
  end do
  print s
end program
)";
  ExecResult Naive = interpret(*compileNaive(Src).M);
  CompileResult LLS = compileWithScheme(Src, PlacementScheme::LLS);
  ExecResult E = interpret(*LLS.M);
  expectBehaviorPreserved(Naive, E, "LLS triangular");
  // The inner guard (1 <= i) varies with the outer loop: the cond-check
  // stays in the inner preheader, executing once per outer iteration
  // instead of once per element.
  EXPECT_LT(E.DynChecks, Naive.DynChecks);
  EXPECT_LE(E.DynChecks, 8u + 2u);
  EXPECT_GE(E.DynChecks, 8u);
}

TEST(PreheaderInsertion, DescendingLoopSubstitutesLowerBound) {
  const char *Src = R"(
program p
  real a(20)
  integer n, i, s
  n = 12
  s = 0
  do i = n, 3, -1
    s = s + int(a(i))
  end do
  print s
end program
)";
  ExecResult Naive = interpret(*compileNaive(Src).M);
  CompileResult LLS = compileWithScheme(Src, PlacementScheme::LLS);
  ExecResult E = interpret(*LLS.M);
  expectBehaviorPreserved(Naive, E, "LLS descending");
  EXPECT_LE(E.DynChecks, 2u);
}

TEST(PreheaderInsertion, NonUnitStepIsNotSubstituted) {
  // With step 2 the last index value is not affine: substitution of the
  // raw upper bound would be wrong when the bound is not hit exactly.
  // Here i takes values 1,3,...,9 but n = 10 and the array has 9
  // elements: substituting i -> 10 would trap spuriously.
  const char *Src = R"(
program p
  real a(9)
  integer n, i, s
  n = 10
  s = 0
  do i = 1, n, 2
    s = s + int(a(i))
  end do
  print s
end program
)";
  ExecResult Naive = interpret(*compileNaive(Src).M);
  ASSERT_EQ(Naive.St, ExecResult::Status::Ok);
  CompileResult LLS = compileWithScheme(Src, PlacementScheme::LLS);
  ExecResult E = interpret(*LLS.M);
  expectBehaviorPreserved(Naive, E, "LLS step2");
  EXPECT_EQ(decisionsWhy(LLS, obs::JustificationId::HoistedSubstituted), 0u);
  EXPECT_EQ(decisions(LLS, obs::LifecycleKind::Inserted,
                      obs::LifecyclePass::PreheaderInsertion),
            0u);
}

TEST(PreheaderInsertion, EarlyReturnBlocksSubstitution) {
  // The subroutine returns from inside the loop before the extreme
  // iteration: substituting the loop limit would check a(12) (out of
  // bounds) although the program never accesses past a(5).
  const char *Src = R"(
program p
  real a(10)
  call walk(a, 12)
  print 3
end program
subroutine walk(a, n)
  real a(10)
  integer n, i
  do i = 1, n
    if (i > 5) then
      return
    end if
    a(i) = 1.0
  end do
end subroutine
)";
  ExecResult Naive = interpret(*compileNaive(Src).M);
  ASSERT_EQ(Naive.St, ExecResult::Status::Ok) << Naive.FaultMessage;
  for (PlacementScheme S :
       {PlacementScheme::LI, PlacementScheme::LLS, PlacementScheme::ALL}) {
    CompileResult R = compileWithScheme(Src, S);
    ExecResult E = interpret(*R.M);
    expectBehaviorPreserved(Naive, E, placementSchemeName(S));
  }
}

TEST(PreheaderInsertion, WhileLoopsAreNotHoisted) {
  // While loops have no affine entry guard: LI/LLS leave their checks
  // alone (the paper's section 3.3 observation).
  const char *Src = R"(
program p
  real a(10)
  integer i, s
  i = 1
  s = 0
  while (i <= 8) do
    s = s + int(a(i))
    i = i + 1
  end while
  print s
end program
)";
  ExecResult Naive = interpret(*compileNaive(Src).M);
  CompileResult LLS = compileWithScheme(Src, PlacementScheme::LLS);
  ExecResult E = interpret(*LLS.M);
  expectBehaviorPreserved(Naive, E, "LLS while");
  EXPECT_EQ(countCondChecks(*LLS.M), 0u);
}

TEST(PreheaderInsertion, VariableBoundsStaySymbolic) {
  // Bounds from scalar variables: the guard and substituted check stay
  // symbolic and evaluate correctly for both entered and skipped loops.
  const char *Src = R"(
program p
  real a(30)
  integer lo, hi, i, s
  lo = 3
  hi = 20
  s = 0
  do i = lo, hi
    s = s + int(a(i))
  end do
  print s
end program
)";
  ExecResult Naive = interpret(*compileNaive(Src).M);
  CompileResult LLS = compileWithScheme(Src, PlacementScheme::LLS);
  ExecResult E = interpret(*LLS.M);
  expectBehaviorPreserved(Naive, E, "LLS symbolic bounds");
  EXPECT_LE(E.DynChecks, 2u);
}

TEST(PreheaderInsertion, HoistedCheckStillTraps) {
  // The loop would violate the bound at its last iteration; the hoisted
  // substituted check must trap (earlier detection is allowed).
  const char *Src = R"(
program p
  real a(10)
  integer n, i
  n = 12
  print 1
  do i = 1, n
    a(i) = 1.0
  end do
  print 2
end program
)";
  ExecResult Naive = interpret(*compileNaive(Src).M);
  ASSERT_EQ(Naive.St, ExecResult::Status::Trapped);
  CompileResult LLS = compileWithScheme(Src, PlacementScheme::LLS);
  ExecResult E = interpret(*LLS.M);
  EXPECT_EQ(E.St, ExecResult::Status::Trapped);
  expectBehaviorPreserved(Naive, E, "LLS trap");
  // Detection is earlier: before any store happened.
  EXPECT_LE(E.DynChecks, Naive.DynChecks);
}

} // namespace
