//===----------------------------------------------------------------------===//
///
/// \file
/// Tests of the availability-based elimination (the paper's NI scheme and
/// step 4) and of compile-time check folding (step 5).
///
//===----------------------------------------------------------------------===//

#include "TestHelpers.h"

#include <gtest/gtest.h>

using namespace nascent;
using namespace nascent::test;

namespace {

uint64_t staticChecks(const Module &M) { return countStatic(M).Checks; }

TEST(Elimination, IdenticalChecksInBlock) {
  // a(i) accessed twice back to back: the second pair of checks is fully
  // redundant.
  CompileResult Naive = compileNaive(R"(
program p
  real a(10), b(10)
  integer i
  i = 4
  b(i) = a(i)
end program
)");
  CompileResult NI = compileWithScheme(R"(
program p
  real a(10), b(10)
  integer i
  i = 4
  b(i) = a(i)
end program
)",
                                       PlacementScheme::NI);
  EXPECT_EQ(staticChecks(*Naive.M), 4u);
  EXPECT_EQ(staticChecks(*NI.M), 2u);
  // Each deletion names its witness, the surviving a(i) check earlier in
  // the block, and renders it as the justifying edge.
  const obs::ProvenanceRecorder &PR = NI.Provenance;
  size_t Witnessed = 0;
  for (const obs::LifecycleEvent &E : PR.events()) {
    if (E.Kind != obs::LifecycleKind::SubsumedBy)
      continue;
    EXPECT_EQ(E.Justification, obs::JustificationId::CoveredEarlierInBlock);
    ASSERT_NE(E.OtherTag, NoCheckTag);
    const obs::LifecycleEvent *Witness = PR.lastEventOf(E.OtherTag);
    ASSERT_NE(Witness, nullptr);
    EXPECT_EQ(Witness->Kind, obs::LifecycleKind::Residualized);
    EXPECT_EQ(PR.edgeStr(E), PR.checkStr(*Witness));
    ++Witnessed;
  }
  EXPECT_EQ(Witnessed, 2u);
}

TEST(Elimination, StrongerCheckCoversWeaker) {
  // Figure 1(b): after Check(2n <= 10), Check(2n <= 11) is redundant.
  const char *Src = R"(
program p
  real a(5:10)
  integer n
  n = 4
  a(2 * n) = 0.0
  a(2 * n - 1) = 1.0
end program
)";
  CompileResult NI = compileWithScheme(Src, PlacementScheme::NI);
  // Naive has 4 checks; the weaker upper bound (2n <= 11) dies, the
  // stronger lower bound (-2n <= -6) survives: 3 remain.
  EXPECT_EQ(staticChecks(*NI.M), 3u);
}

TEST(Elimination, NoImplicationModeKeepsWeaker) {
  const char *Src = R"(
program p
  real a(5:10)
  integer n
  n = 4
  a(2 * n) = 0.0
  a(2 * n - 1) = 1.0
end program
)";
  CompileResult NIPrime = compileWithScheme(
      Src, PlacementScheme::NI, CheckSource::PRX, ImplicationMode::None);
  // Without implications only *identical* checks are redundant: all 4
  // distinct checks survive.
  EXPECT_EQ(staticChecks(*NIPrime.M), 4u);
}

TEST(Elimination, KilledByRedefinition) {
  CompileResult NI = compileWithScheme(R"(
program p
  real a(10)
  integer i
  i = 4
  a(i) = 0.0
  i = 5
  a(i) = 1.0
end program
)",
                                       PlacementScheme::NI);
  // The redefinition of i kills the first pair: nothing is redundant.
  EXPECT_EQ(staticChecks(*NI.M), 4u);
}

TEST(Elimination, MergeRequiresBothPaths) {
  CompileResult NI = compileWithScheme(R"(
program p
  real a(10)
  integer i
  logical c
  i = 4
  c = i > 2
  if (c) then
    a(i) = 1.0
  end if
  a(i) = 2.0
end program
)",
                                       PlacementScheme::NI);
  // The post-join access is only checked on the then path: both its
  // checks must survive (partial redundancy is PRE's job, not NI's).
  EXPECT_EQ(staticChecks(*NI.M), 4u);
}

TEST(Elimination, AvailableAcrossMergeFromBothSides) {
  CompileResult NI = compileWithScheme(R"(
program p
  real a(10)
  integer i
  logical c
  i = 4
  c = i > 2
  if (c) then
    a(i) = 1.0
  else
    a(i) = 1.5
  end if
  a(i) = 2.0
end program
)",
                                       PlacementScheme::NI);
  // Both sides perform the checks: the post-join pair is redundant.
  EXPECT_EQ(staticChecks(*NI.M), 4u);
}

TEST(Elimination, CompileTimeTrueChecksFolded) {
  CompileResult NI = compileWithScheme(R"(
program p
  real a(10)
  a(3) = 1.0
  a(7) = 2.0
end program
)",
                                       PlacementScheme::NI);
  EXPECT_EQ(staticChecks(*NI.M), 0u);
  // The four constant checks form one family: availability deletes the
  // three an earlier one covers, and folding deletes the survivor.
  EXPECT_EQ(decisions(NI, obs::LifecycleKind::SubsumedBy,
                      obs::LifecyclePass::Elimination),
            3u);
  EXPECT_EQ(decisions(NI, obs::LifecycleKind::Eliminated,
                      obs::LifecyclePass::Elimination),
            1u);
  EXPECT_EQ(NI.Stats.CompileTimeDeleted, 1u);
  ExecResult E = interpret(*NI.M);
  EXPECT_EQ(E.DynChecks, 0u);
}

TEST(Elimination, CompileTimeViolationBecomesTrap) {
  PipelineOptions PO;
  PO.Opt.Scheme = PlacementScheme::NI;
  CompileResult R = compileSource(R"(
program p
  real a(10)
  print 1
  a(11) = 1.0
  print 2
end program
)",
                                  PO);
  ASSERT_TRUE(R.Success);
  // The compiler reports the violation...
  bool Warned = false;
  for (const Diagnostic &D : R.Diags.diagnostics())
    if (D.Message.find("compile time") != std::string::npos)
      Warned = true;
  EXPECT_TRUE(Warned);
  // ...and the program still traps at run time, at the same point.
  ExecResult E = interpret(*R.M);
  EXPECT_EQ(E.St, ExecResult::Status::Trapped);
  EXPECT_EQ(E.Output, (std::vector<std::string>{"1"}));
}

TEST(Elimination, StatsReflectWork) {
  PipelineOptions PO;
  PO.Opt.Scheme = PlacementScheme::NI;
  CompileResult R = compileOrDie(R"(
program p
  real a(10), b(10)
  integer i
  i = 2
  b(i) = a(i) + a(i)
end program
)",
                                 PO);
  EXPECT_GT(R.Stats.ChecksBefore, R.Stats.ChecksAfter);
  // The first a(i) covers the second a(i) and b(i), both bounds each:
  // four SubsumedBy events in the log, which is what ChecksDeleted counts.
  EXPECT_EQ(decisions(R, obs::LifecycleKind::SubsumedBy,
                      obs::LifecyclePass::Elimination),
            4u);
  EXPECT_EQ(R.Stats.ChecksDeleted, 4u);
  EXPECT_EQ(R.Stats.ChecksInserted, 0u);
  EXPECT_GT(R.Stats.UniverseSize, 0u);
  EXPECT_GE(R.Stats.UniverseSize, R.Stats.NumFamilies);
}

} // namespace
