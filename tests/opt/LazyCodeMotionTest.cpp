//===----------------------------------------------------------------------===//
///
/// \file
/// Lazy-code-motion placement tests (SE and LNI schemes): partial
/// redundancy across branches, down-safety (no insertion where a check is
/// not anticipatable), and the Figure 5 profitability pathology.
///
//===----------------------------------------------------------------------===//

#include "TestHelpers.h"

#include <gtest/gtest.h>

using namespace nascent;
using namespace nascent::test;

namespace {

uint64_t staticChecks(const Module &M) { return countStatic(M).Checks; }

/// One-sided branch followed by an unconditional access: the classic
/// partially redundant shape.
const char *PartialSrc = R"(
program p
  real a(10)
  integer i, t, s
  i = 4
  s = 0
  do t = 1, 3
    if (t == 2) then
      s = s + int(a(i))
    end if
    s = s + int(a(i)) * 2
  end do
  print s
end program
)";

TEST(LazyCodeMotion, SEEliminatesPartialRedundancy) {
  ExecResult Naive = interpret(*compileNaive(PartialSrc).M);
  CompileResult SE = compileWithScheme(PartialSrc, PlacementScheme::SE);
  ExecResult SERun = interpret(*SE.M);
  expectBehaviorPreserved(Naive, SERun, "SE");
  // Naive: taken iteration does 4 checks, others 2 -> total 8.
  // SE hoists the checks above the branch: 2 per iteration -> 6.
  EXPECT_EQ(Naive.DynChecks, 8u);
  EXPECT_EQ(SERun.DynChecks, 6u);
  // The event log records the two placements (upper and lower bound of
  // a(i)) and the four originals they make redundant.
  EXPECT_EQ(decisions(SE, obs::LifecycleKind::Inserted,
                      obs::LifecyclePass::LazyCodeMotion),
            2u);
  EXPECT_EQ(decisions(SE, obs::LifecycleKind::SubsumedBy,
                      obs::LifecyclePass::Elimination),
            4u);
}

TEST(LazyCodeMotion, LNIAlsoEliminatesIt) {
  ExecResult Naive = interpret(*compileNaive(PartialSrc).M);
  CompileResult LNI = compileWithScheme(PartialSrc, PlacementScheme::LNI);
  ExecResult LNIRun = interpret(*LNI.M);
  expectBehaviorPreserved(Naive, LNIRun, "LNI");
  EXPECT_LE(LNIRun.DynChecks, Naive.DynChecks);
  EXPECT_EQ(LNIRun.DynChecks, 6u);
  EXPECT_EQ(decisions(LNI, obs::LifecycleKind::Inserted,
                      obs::LifecyclePass::LazyCodeMotion),
            2u);
  EXPECT_EQ(decisionsWhy(LNI, obs::JustificationId::LcmSafeEarliestAtStart) +
                decisionsWhy(
                    LNI, obs::JustificationId::LcmSafeEarliestBeforeTerminator),
            0u);
}

TEST(LazyCodeMotion, DownSafetyBlocksSpeculation) {
  // The access happens only on one branch and never afterwards: there is
  // no program point above the branch where the check is anticipatable,
  // so SE must not insert anything above it (a hoisted check could trap
  // in an execution that never accesses the array).
  const char *Src = R"(
program p
  real a(10)
  integer i, s
  logical c
  i = 20
  c = i < 15
  s = 0
  if (c) then
    s = int(a(i))
  end if
  print s
end program
)";
  ExecResult Naive = interpret(*compileNaive(Src).M);
  EXPECT_EQ(Naive.St, ExecResult::Status::Ok); // branch not taken
  CompileResult SE = compileWithScheme(Src, PlacementScheme::SE);
  ExecResult SERun = interpret(*SE.M);
  EXPECT_EQ(SERun.St, ExecResult::Status::Ok) << SERun.FaultMessage;
  expectBehaviorPreserved(Naive, SERun, "SE down-safety");
}

TEST(LazyCodeMotion, Figure5Pathology) {
  // SE can add checks on some paths (the else path re-checks with the
  // weaker bound). The paper accepts this; behaviour stays correct.
  const char *Src = R"(
program p
  real a(10)
  integer i, t, x
  i = 3
  x = 0
  do t = 1, 2
    if (i < 3) then
      x = x + int(a(i))
    else
      x = x + int(a(i + 4))
    end if
  end do
  print x
end program
)";
  ExecResult Naive = interpret(*compileNaive(Src).M);
  CompileResult SE = compileWithScheme(Src, PlacementScheme::SE);
  ExecResult SERun = interpret(*SE.M);
  expectBehaviorPreserved(Naive, SERun, "SE fig5");
  EXPECT_GT(SERun.DynChecks, Naive.DynChecks)
      << "expected the Figure 5 profitability pathology";
}

TEST(LazyCodeMotion, SEAtLeastAsStrongAsNIStatically) {
  // On straight-line redundancy SE includes everything NI does.
  const char *Src = R"(
program p
  real a(10), b(10)
  integer i
  i = 5
  b(i) = a(i) + a(i)
end program
)";
  CompileResult NI = compileWithScheme(Src, PlacementScheme::NI);
  CompileResult SE = compileWithScheme(Src, PlacementScheme::SE);
  EXPECT_LE(staticChecks(*SE.M), staticChecks(*NI.M));
}

TEST(LazyCodeMotion, InsertionUsesRepresentativeOrigin) {
  // Inserted checks keep a meaningful origin for trap messages.
  const char *Src = R"(
program p
  real arr(10)
  integer i, t, s
  i = 11
  s = 0
  do t = 1, 3
    if (t == 2) then
      s = s + int(arr(i))
    end if
    s = s + int(arr(i))
  end do
  print s
end program
)";
  CompileResult SE = compileWithScheme(Src, PlacementScheme::SE);
  ExecResult E = interpret(*SE.M);
  EXPECT_EQ(E.St, ExecResult::Status::Trapped);
  EXPECT_NE(E.FaultMessage.find("arr"), std::string::npos);
}

} // namespace
