//===----------------------------------------------------------------------===//
///
/// \file
/// The two provenance reconciliation invariants, enforced for every
/// placement scheme over the benchmark suite:
///
///  1. Lifecycle terminal states reconcile exactly with OptimizerStats —
///     every Inserted/Moved/Strengthened/SubsumedBy/Eliminated/Trapped/
///     Residualized total matches the corresponding counter
///     (reconcileCheckProvenance, opt/RangeCheckOptimizer.h).
///  2. A check whose lifecycle ended Eliminated (or SubsumedBy, or
///     Trapped) has zero dynamic executions: every execution-profile site
///     with hits has a Residualized last event, and the site hits add up
///     to the interpreter's dynamic check count.
///
//===----------------------------------------------------------------------===//

#include "driver/Pipeline.h"
#include "interp/Interpreter.h"
#include "obs/Profile.h"
#include "obs/Provenance.h"
#include "suite/Suite.h"

#include "gtest/gtest.h"

#include <sstream>

using namespace nascent;

namespace {

const PlacementScheme AllSchemes[] = {
    PlacementScheme::NI,  PlacementScheme::CS,  PlacementScheme::LNI,
    PlacementScheme::SE,  PlacementScheme::LI,  PlacementScheme::LLS,
    PlacementScheme::ALL, PlacementScheme::MCM, PlacementScheme::AI};

CompileResult compileWithProvenance(const SuiteProgram &P,
                                    PlacementScheme Scheme,
                                    CheckSource Source = CheckSource::PRX) {
  PipelineOptions PO;
  PO.Opt.Scheme = Scheme;
  PO.Source = Source;
  PO.Telemetry.Provenance = true;
  PO.Telemetry.Profile = true;
  CompileResult R = compileSource(P.Source, PO);
  EXPECT_TRUE(R.Success) << P.Name << ": " << R.Diags.render();
  return R;
}

std::string join(const std::vector<std::string> &Problems) {
  std::ostringstream OS;
  for (const std::string &P : Problems)
    OS << "  " << P << "\n";
  return OS.str();
}

TEST(ProvenanceReconcile, TerminalStatesMatchOptimizerStatsForAllSchemes) {
  for (const SuiteProgram &P : benchmarkSuite()) {
    for (PlacementScheme Scheme : AllSchemes) {
      CompileResult R = compileWithProvenance(P, Scheme);
      if (!R.Success)
        continue;
      std::vector<std::string> Problems =
          reconcileCheckProvenance(R.Provenance, R.Stats);
      EXPECT_TRUE(Problems.empty())
          << P.Name << "/" << placementSchemeName(Scheme) << ":\n"
          << join(Problems);
    }
  }
}

TEST(ProvenanceReconcile, TerminalStatesMatchStatsUnderINXChecks) {
  const SuiteProgram *P = findSuiteProgram("vortex");
  ASSERT_NE(P, nullptr);
  for (PlacementScheme Scheme : AllSchemes) {
    CompileResult R = compileWithProvenance(*P, Scheme, CheckSource::INX);
    if (!R.Success)
      continue;
    std::vector<std::string> Problems =
        reconcileCheckProvenance(R.Provenance, R.Stats);
    EXPECT_TRUE(Problems.empty())
        << placementSchemeName(Scheme) << ":\n"
        << join(Problems);
  }
}

TEST(ProvenanceReconcile, EliminatedChecksNeverExecute) {
  const char *Programs[] = {"vortex", "linpackd", "trfd"};
  for (const char *Name : Programs) {
    const SuiteProgram *P = findSuiteProgram(Name);
    ASSERT_NE(P, nullptr) << Name;
    for (PlacementScheme Scheme : AllSchemes) {
      CompileResult R = compileWithProvenance(*P, Scheme);
      if (!R.Success)
        continue;

      InterpOptions IO;
      IO.Profile = &R.Profile;
      ExecResult E = interpret(*R.M, IO);
      ASSERT_NE(E.St, ExecResult::Status::HardFault)
          << Name << "/" << placementSchemeName(Scheme) << ": "
          << E.FaultMessage;

      uint64_t SiteHits = 0;
      for (const obs::FunctionProfile &FP : R.Profile.functions())
        for (const obs::CheckSiteProfile &Site : FP.Sites) {
          SiteHits += Site.Hits;
          if (Site.Hits == 0)
            continue;
          // Every dynamically executed check is a recorded, surviving one.
          ASSERT_NE(Site.Tag, NoCheckTag)
              << Name << "/" << placementSchemeName(Scheme) << " " << FP.Name
              << " block " << Site.Block;
          const obs::LifecycleEvent *Last =
              R.Provenance.lastEventOf(Site.Tag);
          ASSERT_NE(Last, nullptr)
              << Name << "/" << placementSchemeName(Scheme) << " tag "
              << Site.Tag;
          EXPECT_EQ(Last->Kind, obs::LifecycleKind::Residualized)
              << Name << "/" << placementSchemeName(Scheme) << " tag "
              << Site.Tag << " executed " << Site.Hits
              << " times but its lifecycle ended "
              << obs::lifecycleKindName(Last->Kind);
        }
      EXPECT_EQ(SiteHits, E.DynChecks)
          << Name << "/" << placementSchemeName(Scheme);
    }
  }
}

} // namespace
