//===----------------------------------------------------------------------===//
///
/// \file
/// The optimization-remark stream: per-kind remark totals (derived from the
/// lifecycle events through the fixed mapping table) must reconcile
/// exactly with OptimizerStats for every placement scheme, the family
/// filter must drop non-matching remarks, and the residual-check join
/// against the execution profile must agree with the dynamic check count.
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

/// Per-kind reconciliation of one compile's remark stream against its
/// OptimizerStats.
void expectReconciled(const CompileResult &R, PlacementScheme S) {
  const char *N = placementSchemeName(S);
  const obs::RemarkCollector &RC = R.Remarks;
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

CompileResult compileWithRemarks(const char *Source, PlacementScheme S,
                                 const std::string &Filter = "") {
  PipelineOptions PO;
  PO.Opt.Scheme = S;
  PO.Telemetry.Remarks = true;
  PO.Telemetry.RemarkFilter = Filter;
  return compileOrDie(Source, PO);
}

} // namespace

TEST(Remarks, ReconcilesWithStatsAcrossAllSchemes) {
  for (PlacementScheme S :
       {PlacementScheme::NI, PlacementScheme::CS, PlacementScheme::LNI,
        PlacementScheme::SE, PlacementScheme::LI, PlacementScheme::LLS,
        PlacementScheme::ALL, PlacementScheme::MCM, PlacementScheme::AI}) {
    CompileResult R = compileWithRemarks(Corpus, S);
    expectReconciled(R, S);
  }
}

TEST(Remarks, LlsEmitsDecisions) {
  CompileResult R = compileWithRemarks(Corpus, PlacementScheme::LLS);
  EXPECT_FALSE(R.Remarks.remarks().empty());
  EXPECT_GT(R.Stats.ChecksDeleted, 0u);
  for (const obs::Remark &M : R.Remarks.remarks()) {
    EXPECT_FALSE(M.Pass.empty());
    EXPECT_FALSE(M.Function.empty());
    EXPECT_FALSE(M.Block.empty());
    EXPECT_FALSE(M.CheckStr.empty());
    EXPECT_FALSE(M.Justification.empty());
  }
}

TEST(Remarks, DisabledCollectorStaysEmpty) {
  PipelineOptions PO;
  PO.Opt.Scheme = PlacementScheme::LLS;
  CompileResult R = compileOrDie(Corpus, PO);
  EXPECT_FALSE(R.Remarks.enabled());
  EXPECT_TRUE(R.Remarks.remarks().empty());
}

TEST(Remarks, FamilyFilter) {
  CompileResult All = compileWithRemarks(Corpus, PlacementScheme::LLS);
  CompileResult None =
      compileWithRemarks(Corpus, PlacementScheme::LLS, "zzz-no-such-family");
  CompileResult OnlyB = compileWithRemarks(Corpus, PlacementScheme::LLS, "^b$");
  EXPECT_TRUE(None.Remarks.remarks().empty());
  EXPECT_FALSE(OnlyB.Remarks.remarks().empty());
  EXPECT_LT(OnlyB.Remarks.remarks().size(), All.Remarks.remarks().size());
  for (const obs::Remark &M : OnlyB.Remarks.remarks())
    EXPECT_EQ(M.Origin.ArrayName, "b");
}

TEST(Remarks, ResidualJoinMatchesDynamicCounts) {
  CompileResult R = compileWithRemarks(Corpus, PlacementScheme::LLS);
  obs::ExecutionProfile Profile;
  Profile.attach(*R.M);
  InterpOptions IO;
  IO.Profile = &Profile;
  ExecResult E = interpret(*R.M, IO);
  ASSERT_TRUE(E.ok()) << E.FaultMessage;

  size_t Before = R.Remarks.remarks().size();
  emitResidualCheckRemarks(R.Provenance, Profile, R.Remarks);
  // One residual remark per *static* surviving check...
  EXPECT_EQ(R.Remarks.count(obs::RemarkKind::Residual), R.Stats.ChecksAfter);
  EXPECT_EQ(R.Remarks.remarks().size(), Before + R.Stats.ChecksAfter);
  // ...and their dynamic counts sum to the interpreter's check total.
  uint64_t Sum = 0;
  for (const obs::Remark &M : R.Remarks.remarks())
    if (M.Kind == obs::RemarkKind::Residual) {
      EXPECT_TRUE(M.HasDynCount);
      Sum += M.DynCount;
    }
  EXPECT_EQ(Sum, E.DynChecks);
}

TEST(Remarks, JsonStreamParses) {
  CompileResult R = compileWithRemarks(Corpus, PlacementScheme::LLS);
  obs::JsonValue V;
  std::string Err;
  ASSERT_TRUE(obs::parseJson(R.Remarks.toJson(), V, &Err)) << Err;
  ASSERT_TRUE(V.isArray());
  ASSERT_EQ(V.Array.size(), R.Remarks.remarks().size());
  for (const obs::JsonValue &M : V.Array) {
    ASSERT_NE(M.get("kind"), nullptr);
    ASSERT_NE(M.get("pass"), nullptr);
    ASSERT_NE(M.get("block"), nullptr);
    ASSERT_NE(M.get("check"), nullptr);
    ASSERT_NE(M.get("justification"), nullptr);
    ASSERT_NE(M.get("origin"), nullptr);
  }
}
