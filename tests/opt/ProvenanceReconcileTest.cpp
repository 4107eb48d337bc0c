//===----------------------------------------------------------------------===//
///
/// \file
/// The provenance reconciliation invariants, enforced for every placement
/// scheme over the benchmark suite:
///
///  1. The record closes and matches the IR: every lifecycle ends in a
///     terminal state, no witness tag dangles, and the Residualized
///     events number exactly the surviving static checks
///     (reconcileCheckProvenance, opt/RangeCheckOptimizer.h).
///  2. A check whose lifecycle ended Eliminated (or SubsumedBy, or
///     Trapped) has zero dynamic executions: every execution-profile site
///     with hits has a Residualized last event, and the site hits add up
///     to the interpreter's dynamic check count.
///  3. The decision counts derived from the events — OptimizerStats, the
///     opt.* counters, the residual static checks — are the same whether
///     optimizeModule records into the caller's recorder or its own.
///
//===----------------------------------------------------------------------===//

#include "cache/ArtifactCache.h"
#include "driver/Pipeline.h"
#include "interp/Interpreter.h"
#include "obs/Profile.h"
#include "obs/Provenance.h"
#include "obs/StatRegistry.h"
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

/// What one optimizeModule run decided, counted three ways: its
/// OptimizerStats, the opt.* counter deltas it credited, and the static
/// checks left in the IR.
struct DecisionCounts {
  std::string Stats;
  obs::StatSnapshot::FlatMap OptCounters;
  uint64_t ResidualChecks = 0;
};

DecisionCounts optimizeClone(const Module &Pre, RangeCheckOptions Opts,
                             obs::ProvenanceRecorder *PR) {
  std::unique_ptr<Module> M = Pre.clone();
  Opts.Provenance = PR;
  DiagnosticEngine Diags;
  DecisionCounts C;
  obs::StatSnapshot Before = obs::StatRegistry::global().snapshot();
  C.Stats = optimizeModule(*M, Opts, Diags).toJson();
  for (const auto &[Name, V] :
       obs::StatRegistry::global().snapshot().deltaFrom(Before))
    if (Name.rfind("opt.", 0) == 0)
      C.OptCounters[Name] = V;
  for (const Function *F : M->functions())
    for (const auto &BB : *F)
      for (const Instruction &I : BB->instructions())
        C.ResidualChecks += I.isRangeCheck();
  return C;
}

TEST(ProvenanceReconcile, DecisionCountsIndependentOfCallerRecorder) {
  for (const SuiteProgram &P : benchmarkSuite()) {
    for (CheckSource Source : {CheckSource::PRX, CheckSource::INX}) {
      // The lowered (and, for INX, synthesized) module every run starts
      // from.
      PipelineOptions PO;
      PO.Optimize = false;
      PO.Source = Source;
      CompileResult Pre = compileSource(P.Source, PO);
      ASSERT_TRUE(Pre.Success) << P.Name << ": " << Pre.Diags.render();
      for (bool UseCache : {false, true}) {
        for (PlacementScheme Scheme : AllSchemes) {
          RangeCheckOptions Opts;
          Opts.Scheme = Scheme;
          // With the cache on, the recorded run fills it and the local
          // one hits it.
          cache::ArtifactCache Cache;
          if (UseCache) {
            Opts.Cache = &Cache;
            Opts.ModuleKey = cache::hashFrontendKey(
                P.Source, PO.Lowering, static_cast<unsigned>(Source));
          }
          obs::ProvenanceRecorder PR;
          DecisionCounts Recorded = optimizeClone(*Pre.M, Opts, &PR);
          DecisionCounts Local = optimizeClone(*Pre.M, Opts, nullptr);
          std::string Cell = std::string(P.Name) + "/" +
                             placementSchemeName(Scheme) +
                             (Source == CheckSource::INX ? "/INX" : "/PRX") +
                             (UseCache ? "/cache" : "");
          EXPECT_EQ(Recorded.Stats, Local.Stats) << Cell;
          EXPECT_EQ(Recorded.OptCounters, Local.OptCounters) << Cell;
          EXPECT_EQ(Recorded.ResidualChecks, Local.ResidualChecks) << Cell;
        }
      }
    }
  }
}

} // namespace
