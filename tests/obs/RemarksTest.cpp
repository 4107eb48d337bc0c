//===----------------------------------------------------------------------===//
///
/// \file
/// The optimization-remark stream: per-kind remark totals (derived from the
/// lifecycle events through the fixed mapping table) must reconcile
/// exactly with OptimizerStats for every placement scheme, the family
/// filter must drop non-matching remarks (and a malformed filter must be
/// rejected, not thrown), and the residual-check join against the
/// execution profile must agree with the dynamic check count.
///
//===----------------------------------------------------------------------===//

#include "TestHelpers.h"
#include "obs/Json.h"
#include "obs/Profile.h"
#include "obs/Remarks.h"

#include <gtest/gtest.h>

using namespace nascent;
using namespace nascent::test;

namespace {

/// Triangular loop over two arrays with a conditional update: exercises
/// elimination, strengthening, preheader hoisting, and LCM placement.
const char *Corpus = R"(
program remarks
  integer n, i, j
  real a(40), b(40)
  n = 30
  do i = 1, n
    a(i) = real(i)
  end do
  do i = 1, n
    do j = i, n
      b(j) = b(j) + a(i)
      if (j > 5) then
        a(j) = b(j)
      end if
    end do
  end do
  print b(7)
end program
)";

/// One compile and the decision remarks derived from its lifecycle
/// events.
struct RemarkedCompile {
  CompileResult R;
  obs::RemarkCollector Remarks;
};

/// Per-kind reconciliation of one compile's remark stream against its
/// OptimizerStats.
void expectReconciled(const RemarkedCompile &C, PlacementScheme S) {
  const char *N = placementSchemeName(S);
  const CompileResult &R = C.R;
  const obs::RemarkCollector &RC = C.Remarks;
  EXPECT_EQ(RC.count(obs::RemarkKind::Eliminated), R.Stats.ChecksDeleted) << N;
  EXPECT_EQ(RC.count(obs::RemarkKind::Strengthened),
            R.Stats.ChecksStrengthened)
      << N;
  EXPECT_EQ(RC.count(obs::RemarkKind::LcmInserted), R.Stats.ChecksInserted)
      << N;
  EXPECT_EQ(RC.count(obs::RemarkKind::CondInserted),
            R.Stats.CondChecksInserted)
      << N;
  EXPECT_EQ(RC.count(obs::RemarkKind::Rehoisted), R.Stats.Rehoisted) << N;
  EXPECT_EQ(RC.count(obs::RemarkKind::CompileTimeDeleted),
            R.Stats.CompileTimeDeleted)
      << N;
  EXPECT_EQ(RC.count(obs::RemarkKind::CompileTimeTrap),
            R.Stats.CompileTimeTraps)
      << N;
  EXPECT_EQ(RC.count(obs::RemarkKind::IntervalEliminated),
            R.Stats.IntervalDeleted)
      << N;
  EXPECT_EQ(RC.count(obs::RemarkKind::Residual), 0u) << N;
}

RemarkedCompile compileWithRemarks(const char *Source, PlacementScheme S,
                                   const std::string &Filter = "") {
  PipelineOptions PO;
  PO.Opt.Scheme = S;
  RemarkedCompile C{compileOrDie(Source, PO), {}};
  std::string Err;
  EXPECT_TRUE(C.Remarks.setFilter(Filter, &Err)) << Err;
  obs::collectDecisionRemarks(C.R.Provenance, C.Remarks);
  return C;
}

} // namespace

TEST(Remarks, ReconcilesWithStatsAcrossAllSchemes) {
  for (PlacementScheme S :
       {PlacementScheme::NI, PlacementScheme::CS, PlacementScheme::LNI,
        PlacementScheme::SE, PlacementScheme::LI, PlacementScheme::LLS,
        PlacementScheme::ALL, PlacementScheme::MCM, PlacementScheme::AI}) {
    expectReconciled(compileWithRemarks(Corpus, S), S);
  }
}

TEST(Remarks, LlsEmitsDecisions) {
  RemarkedCompile C = compileWithRemarks(Corpus, PlacementScheme::LLS);
  EXPECT_FALSE(C.Remarks.remarks().empty());
  EXPECT_GT(C.R.Stats.ChecksDeleted, 0u);
  for (const obs::Remark &M : C.Remarks.remarks()) {
    EXPECT_FALSE(M.Pass.empty());
    EXPECT_FALSE(M.Function.empty());
    EXPECT_FALSE(M.Block.empty());
    EXPECT_FALSE(M.CheckStr.empty());
    EXPECT_FALSE(M.Justification.empty());
  }
}

TEST(Remarks, FamilyFilter) {
  RemarkedCompile All = compileWithRemarks(Corpus, PlacementScheme::LLS);
  RemarkedCompile None =
      compileWithRemarks(Corpus, PlacementScheme::LLS, "zzz-no-such-family");
  RemarkedCompile OnlyB =
      compileWithRemarks(Corpus, PlacementScheme::LLS, "^b$");
  EXPECT_TRUE(None.Remarks.remarks().empty());
  EXPECT_FALSE(OnlyB.Remarks.remarks().empty());
  EXPECT_LT(OnlyB.Remarks.remarks().size(), All.Remarks.remarks().size());
  for (const obs::Remark &M : OnlyB.Remarks.remarks())
    EXPECT_EQ(M.Origin.ArrayName, "b");
}

TEST(Remarks, InvalidFilterIsRejected) {
  obs::RemarkCollector RC;
  std::string Err;
  EXPECT_FALSE(RC.setFilter("[", &Err));
  EXPECT_FALSE(Err.empty());
  EXPECT_FALSE(RC.setFilter("(", &Err));
  // A rejected filter leaves the collector unfiltered.
  RemarkedCompile C = compileWithRemarks(Corpus, PlacementScheme::LLS);
  obs::collectDecisionRemarks(C.R.Provenance, RC);
  EXPECT_EQ(RC.remarks().size(), C.Remarks.remarks().size());
}

TEST(Remarks, ResidualJoinMatchesDynamicCounts) {
  RemarkedCompile C = compileWithRemarks(Corpus, PlacementScheme::LLS);
  CompileResult &R = C.R;
  obs::ExecutionProfile Profile;
  Profile.attach(*R.M);
  InterpOptions IO;
  IO.Profile = &Profile;
  ExecResult E = interpret(*R.M, IO);
  ASSERT_TRUE(E.ok()) << E.FaultMessage;

  size_t Before = C.Remarks.remarks().size();
  emitResidualCheckRemarks(R.Provenance, Profile, C.Remarks);
  // One residual remark per *static* surviving check...
  EXPECT_EQ(C.Remarks.count(obs::RemarkKind::Residual), R.Stats.ChecksAfter);
  EXPECT_EQ(C.Remarks.remarks().size(), Before + R.Stats.ChecksAfter);
  // ...and their dynamic counts sum to the interpreter's check total.
  uint64_t Sum = 0;
  for (const obs::Remark &M : C.Remarks.remarks())
    if (M.Kind == obs::RemarkKind::Residual) {
      EXPECT_TRUE(M.HasDynCount);
      Sum += M.DynCount;
    }
  EXPECT_EQ(Sum, E.DynChecks);
}

TEST(Remarks, JsonStreamParses) {
  RemarkedCompile C = compileWithRemarks(Corpus, PlacementScheme::LLS);
  obs::JsonValue V;
  std::string Err;
  ASSERT_TRUE(obs::parseJson(C.Remarks.toJson(), V, &Err)) << Err;
  ASSERT_TRUE(V.isArray());
  ASSERT_EQ(V.Array.size(), C.Remarks.remarks().size());
  for (const obs::JsonValue &M : V.Array) {
    ASSERT_NE(M.get("kind"), nullptr);
    ASSERT_NE(M.get("pass"), nullptr);
    ASSERT_NE(M.get("block"), nullptr);
    ASSERT_NE(M.get("check"), nullptr);
    ASSERT_NE(M.get("justification"), nullptr);
    ASSERT_NE(M.get("origin"), nullptr);
  }
}
