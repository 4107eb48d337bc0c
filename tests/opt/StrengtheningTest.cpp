//===----------------------------------------------------------------------===//
///
/// \file
/// Check-strengthening tests (the paper's CS scheme): each check is
/// replaced by the strongest anticipatable member of its family, turning
/// Figure 1(b) into Figure 1(c).
///
//===----------------------------------------------------------------------===//

#include "TestHelpers.h"

#include <gtest/gtest.h>

using namespace nascent;
using namespace nascent::test;

namespace {

uint64_t staticChecks(const Module &M) { return countStatic(M).Checks; }

TEST(Strengthening, Figure1FragmentEndsWithTwoChecks) {
  const char *Src = R"(
program p
  real a(5:10)
  integer n
  n = 4
  a(2 * n) = 0.0
  a(2 * n - 1) = 1.0
end program
)";
  CompileResult CS = compileWithScheme(Src, PlacementScheme::CS);
  EXPECT_EQ(staticChecks(*CS.M), 2u);
  // One lower-bound check is rewritten in place (-2n+1 <= -5 becomes
  // -2n <= -6); the event log is the only record of it.
  EXPECT_EQ(decisions(CS, obs::LifecycleKind::Strengthened,
                      obs::LifecyclePass::CheckStrengthening),
            1u);

  // The surviving lower-bound check is the strengthened (-2n <= -6).
  bool FoundStrengthened = false;
  for (const auto &BB : *CS.M->entry())
    for (const Instruction &I : BB->instructions())
      if (I.Op == Opcode::Check && I.Check.bound() == -6)
        FoundStrengthened = true;
  EXPECT_TRUE(FoundStrengthened);
}

TEST(Strengthening, RequiresAnticipatability) {
  // The stronger check is conditional: it is NOT anticipatable at the
  // earlier weaker check, so strengthening must not happen (that would
  // introduce a trap on the c-false path).
  const char *Src = R"(
program p
  real a(5:10)
  integer n
  logical c
  n = 4
  c = n > 100
  a(2 * n) = 0.0
  if (c) then
    a(2 * n - 1) = 1.0
  end if
end program
)";
  CompileResult CS = compileWithScheme(Src, PlacementScheme::CS);
  EXPECT_EQ(decisions(CS, obs::LifecycleKind::Strengthened,
                      obs::LifecyclePass::CheckStrengthening),
            0u);
  // The early lower check must still be the original (-2n <= -5).
  bool FoundOriginal = false;
  for (const auto &BB : *CS.M->entry())
    for (const Instruction &I : BB->instructions())
      if (I.Op == Opcode::Check && I.Check.bound() == -5)
        FoundOriginal = true;
  EXPECT_TRUE(FoundOriginal);

  ExecResult Naive = interpret(*compileNaive(Src).M);
  ExecResult Opt = interpret(*CS.M);
  expectBehaviorPreserved(Naive, Opt, "CS");
}

TEST(Strengthening, KillBlocksStrengthening) {
  // n is redefined between the two checks: the later (stronger) check is
  // not anticipatable at the earlier one.
  const char *Src = R"(
program p
  real a(5:10)
  integer n
  n = 4
  a(2 * n) = 0.0
  n = 3
  a(2 * n + 1) = 1.0
end program
)";
  CompileResult CS = compileWithScheme(Src, PlacementScheme::CS);
  CompileResult Naive = compileNaive(Src);
  // Nothing can be strengthened or eliminated across the kill.
  EXPECT_EQ(staticChecks(*CS.M), staticChecks(*Naive.M));
}

TEST(Strengthening, AcrossBlocks) {
  // The stronger check lives in a later block but on every path: CS
  // still strengthens (anticipatability is a global property).
  const char *Src = R"(
program p
  real a(5:10)
  integer n, s
  logical c
  n = 4
  c = n > 1
  a(2 * n) = 0.0
  if (c) then
    s = 1
  else
    s = 2
  end if
  a(2 * n - 1) = 1.0
  print s
end program
)";
  CompileResult CS = compileWithScheme(Src, PlacementScheme::CS);
  bool FoundStrengthened = false;
  for (const auto &BB : *CS.M->entry())
    for (const Instruction &I : BB->instructions())
      if (I.Op == Opcode::Check && I.Check.bound() == -6)
        FoundStrengthened = true;
  EXPECT_TRUE(FoundStrengthened);
  ExecResult Naive = interpret(*compileNaive(Src).M);
  ExecResult Opt = interpret(*CS.M);
  expectBehaviorPreserved(Naive, Opt, "CS across blocks");
}

TEST(Strengthening, TrapsEarlierButEquivalently) {
  // With n = 3, a(2n) = a(6) is fine but a(2n-1) = a(5)... both fine;
  // with n = 8, a(16) violates: both naive and CS must trap, and CS may
  // trap before the first store (earlier detection is explicitly allowed
  // by the paper).
  const char *Src = R"(
program p
  real a(5:10)
  integer n
  n = 8
  print 1
  a(2 * n) = 0.0
  a(2 * n - 1) = 1.0
  print 2
end program
)";
  ExecResult Naive = interpret(*compileNaive(Src).M);
  ExecResult Opt =
      interpret(*compileWithScheme(Src, PlacementScheme::CS).M);
  EXPECT_EQ(Naive.St, ExecResult::Status::Trapped);
  EXPECT_EQ(Opt.St, ExecResult::Status::Trapped);
  expectBehaviorPreserved(Naive, Opt, "CS trap");
}

} // namespace
