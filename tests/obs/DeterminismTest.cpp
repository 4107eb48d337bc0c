//===----------------------------------------------------------------------===//
///
/// \file
/// The work-proxy counters are the deterministic half of the perf
/// regression gate: benchdiff compares them exactly, so two optimizations
/// of the same program must produce bit-identical StatRegistry deltas.
/// This test compiles a suite program twice per placement scheme in one
/// process and asserts exactly that. A scheme whose counters depend on
/// iteration order, pointer values, or leftover state from a previous run
/// fails here before it can make the bench gate flaky.
///
//===----------------------------------------------------------------------===//

#include "cache/ArtifactCache.h"
#include "driver/BatchCompiler.h"
#include "driver/Pipeline.h"
#include "interp/Interpreter.h"
#include "obs/StatRegistry.h"
#include "suite/Suite.h"

#include "gtest/gtest.h"

using namespace nascent;

namespace {

/// One compile+optimize bracketed in registry snapshots.
obs::StatSnapshot::FlatMap compileDelta(const SuiteProgram &P,
                                        PlacementScheme Scheme) {
  PipelineOptions PO;
  PO.Opt.Scheme = Scheme;
  obs::StatSnapshot Before = obs::StatRegistry::global().snapshot();
  CompileResult R = compileSource(P.Source, PO);
  EXPECT_TRUE(R.Success) << P.Name;
  return obs::StatRegistry::global().snapshot().deltaFrom(Before);
}

TEST(Determinism, WorkProxyDeltasAreBitIdenticalAcrossSchemes) {
  const PlacementScheme Schemes[] = {
      PlacementScheme::NI,  PlacementScheme::CS,  PlacementScheme::LNI,
      PlacementScheme::SE,  PlacementScheme::LI,  PlacementScheme::LLS,
      PlacementScheme::ALL, PlacementScheme::MCM, PlacementScheme::AI};

  const SuiteProgram *P = findSuiteProgram("vortex");
  ASSERT_NE(P, nullptr);

  // One warmup compile so lazily-interned stats and other one-time
  // initialisation cannot show up as a first-run-only delta.
  compileDelta(*P, PlacementScheme::NI);

  for (PlacementScheme Scheme : Schemes) {
    obs::StatSnapshot::FlatMap First = compileDelta(*P, Scheme);
    obs::StatSnapshot::FlatMap Second = compileDelta(*P, Scheme);
    EXPECT_FALSE(First.empty()) << placementSchemeName(Scheme);
    EXPECT_EQ(First, Second) << placementSchemeName(Scheme);
  }
}

TEST(Determinism, SchemesAreDistinguishedByTheirDeltas) {
  // Sanity on the signal itself: the per-scheme counters must record
  // which scheme ran, otherwise the bench records could not attribute
  // work to configurations.
  const SuiteProgram *P = findSuiteProgram("vortex");
  ASSERT_NE(P, nullptr);
  obs::StatSnapshot::FlatMap NI = compileDelta(*P, PlacementScheme::NI);
  obs::StatSnapshot::FlatMap LLS = compileDelta(*P, PlacementScheme::LLS);
  EXPECT_TRUE(NI.count("opt.scheme.NI"));
  EXPECT_TRUE(LLS.count("opt.scheme.LLS"));
  EXPECT_FALSE(LLS.count("opt.scheme.NI"));
}

TEST(Determinism, WorkCountersAreBitIdenticalAcrossJobCounts) {
  // The sharded registry's contract under BatchCompiler: the per-job
  // stat deltas and the whole-batch registry growth are the same for
  // --jobs 1, 2, and 8. This is what lets sweep --jobs N and the
  // bench sweeps gate on exact counters regardless of worker count.
  const PlacementScheme Schemes[] = {
      PlacementScheme::NI,  PlacementScheme::CS,  PlacementScheme::LNI,
      PlacementScheme::SE,  PlacementScheme::LI,  PlacementScheme::LLS,
      PlacementScheme::ALL, PlacementScheme::MCM, PlacementScheme::AI};
  const SuiteProgram *P = findSuiteProgram("vortex");
  ASSERT_NE(P, nullptr);

  std::vector<BatchJob> Batch;
  for (PlacementScheme Scheme : Schemes) {
    PipelineOptions PO;
    PO.Opt.Scheme = Scheme;
    Batch.push_back({P->Source, PO});
  }

  auto WorkMaps = [&Batch](unsigned Jobs) {
    std::vector<obs::StatSnapshot::FlatMap> Out;
    for (BatchJobResult &R : BatchCompiler(Jobs).run(Batch))
      Out.push_back(std::move(R.Work));
    return Out;
  };

  WorkMaps(1); // warmup: intern dynamic per-scheme counters
  std::vector<obs::StatSnapshot::FlatMap> Serial = WorkMaps(1);
  for (size_t I = 0; I != Serial.size(); ++I)
    EXPECT_FALSE(Serial[I].empty())
        << placementSchemeName(Schemes[I]);
  EXPECT_EQ(WorkMaps(2), Serial);
  EXPECT_EQ(WorkMaps(8), Serial);
}

TEST(Determinism, ProvenanceJsonIsBitIdenticalAcrossJobCountsAndRuns) {
  // The lifecycle record carries no timestamps and is written in pass
  // order, so its serialised form must match byte for byte across
  // repeated runs and across BatchCompiler job counts — the contract the
  // sweep --provenance documents rely on.
  const PlacementScheme Schemes[] = {
      PlacementScheme::NI,  PlacementScheme::CS,  PlacementScheme::LNI,
      PlacementScheme::SE,  PlacementScheme::LI,  PlacementScheme::LLS,
      PlacementScheme::ALL, PlacementScheme::MCM, PlacementScheme::AI};
  const SuiteProgram *P = findSuiteProgram("vortex");
  ASSERT_NE(P, nullptr);

  std::vector<BatchJob> Batch;
  for (PlacementScheme Scheme : Schemes) {
    PipelineOptions PO;
    PO.Opt.Scheme = Scheme;
    Batch.push_back({P->Source, PO});
  }

  auto ProvenanceJsons = [&Batch](unsigned Jobs) {
    std::vector<std::string> Out;
    for (const BatchJobResult &R : BatchCompiler(Jobs).run(Batch)) {
      EXPECT_TRUE(R.Result.Success);
      Out.push_back(R.Result.Provenance.toJson());
    }
    return Out;
  };

  std::vector<std::string> Serial = ProvenanceJsons(1);
  for (size_t I = 0; I != Serial.size(); ++I)
    EXPECT_NE(Serial[I].find("\"events\""), std::string::npos)
        << placementSchemeName(Schemes[I]);
  EXPECT_EQ(ProvenanceJsons(1), Serial); // repeated serial run
  EXPECT_EQ(ProvenanceJsons(2), Serial);
  EXPECT_EQ(ProvenanceJsons(8), Serial);
}

TEST(Determinism, ProfileJsonIsBitIdenticalAcrossJobCountsAndRuns) {
  // The execution-profile envelope carries no timestamps and is written
  // in deterministic (module, block, site, loop) order, so compiling
  // under BatchCompiler at any job count and replaying the same inputs
  // serially must serialise byte for byte — the contract behind
  // `sweep --profile --jobs N` and merged profile documents
  // (docs/profiling.md).
  const PlacementScheme Schemes[] = {
      PlacementScheme::NI,  PlacementScheme::CS,  PlacementScheme::LNI,
      PlacementScheme::SE,  PlacementScheme::LI,  PlacementScheme::LLS,
      PlacementScheme::ALL, PlacementScheme::MCM, PlacementScheme::AI};
  const SuiteProgram *P = findSuiteProgram("vortex");
  ASSERT_NE(P, nullptr);

  std::vector<BatchJob> Batch;
  for (PlacementScheme Scheme : Schemes) {
    PipelineOptions PO;
    PO.Opt.Scheme = Scheme;
    PO.Telemetry.Profile = true;
    Batch.push_back({P->Source, PO});
  }

  // Compile under the given job count, then interpret serially in
  // submission order (execution itself is single-threaded; only the
  // compiles are sharded) and serialise each profile envelope.
  auto ProfileJsons = [&Batch](unsigned Jobs) {
    std::vector<std::string> Out;
    for (BatchJobResult &R : BatchCompiler(Jobs).run(Batch)) {
      EXPECT_TRUE(R.Result.Success);
      InterpOptions IO;
      IO.Profile = &R.Result.Profile;
      interpret(*R.Result.M, IO);
      Out.push_back(R.Result.Profile.toEnvelopeJson());
    }
    return Out;
  };

  std::vector<std::string> Serial = ProfileJsons(1);
  for (size_t I = 0; I != Serial.size(); ++I)
    EXPECT_NE(Serial[I].find("\"profileVersion\""), std::string::npos)
        << placementSchemeName(Schemes[I]);
  EXPECT_EQ(ProfileJsons(1), Serial); // repeated serial run
  EXPECT_EQ(ProfileJsons(2), Serial);
  EXPECT_EQ(ProfileJsons(8), Serial);
}

TEST(Determinism, CacheOnAndOffProduceBitIdenticalOutputs) {
  // The artifact cache's hard contract (docs/caching.md): reusing a
  // frontend snapshot or a pre-built analysis context must not change a
  // byte of any observable output. Compile every scheme twice per batch
  // (so the second compile of each scheme hits the cache) and compare the
  // per-job work maps, provenance JSON, and profile JSON against a
  // cache-off run of the same batch, at every job count.
  const PlacementScheme Schemes[] = {
      PlacementScheme::NI,  PlacementScheme::CS,  PlacementScheme::LNI,
      PlacementScheme::SE,  PlacementScheme::LI,  PlacementScheme::LLS,
      PlacementScheme::ALL, PlacementScheme::MCM, PlacementScheme::AI};
  const SuiteProgram *P = findSuiteProgram("vortex");
  ASSERT_NE(P, nullptr);

  auto MakeBatch = [&](bool UseCache, cache::ArtifactCache *Cache) {
    std::vector<BatchJob> Batch;
    auto Source = std::make_shared<const std::string>(P->Source);
    for (int Round = 0; Round != 2; ++Round) {
      for (PlacementScheme Scheme : Schemes) {
        PipelineOptions PO;
        PO.Opt.Scheme = Scheme;
        PO.Cache.Enabled = UseCache;
        PO.Cache.Cache = Cache;
        PO.Telemetry.Profile = true;
        Batch.push_back({Source, PO});
      }
    }
    return Batch;
  };

  struct Observed {
    std::vector<obs::StatSnapshot::FlatMap> Work;
    std::vector<std::string> Provenance;
    std::vector<std::string> Profiles;
    bool operator==(const Observed &O) const {
      return Work == O.Work && Provenance == O.Provenance &&
             Profiles == O.Profiles;
    }
  };
  auto Run = [&](unsigned Jobs, bool UseCache) {
    // A fresh cache instance per run keeps runs independent of each
    // other and of anything the process-global cache accumulated.
    cache::ArtifactCache Cache;
    Observed Out;
    for (BatchJobResult &R :
         BatchCompiler(Jobs).run(MakeBatch(UseCache, &Cache))) {
      EXPECT_TRUE(R.Result.Success);
      InterpOptions IO;
      IO.Profile = &R.Result.Profile;
      interpret(*R.Result.M, IO);
      Out.Work.push_back(std::move(R.Work));
      Out.Provenance.push_back(R.Result.Provenance.toJson());
      Out.Profiles.push_back(R.Result.Profile.toEnvelopeJson());
    }
    return Out;
  };

  Run(1, false); // warmup: intern dynamic per-scheme counters
  Observed Baseline = Run(1, false);
  for (unsigned Jobs : {1u, 2u, 8u})
    EXPECT_TRUE(Run(Jobs, true) == Baseline) << "jobs=" << Jobs;
}

TEST(Determinism, CachedFrontendHitsReconcileWithSharedSources) {
  // Hit/miss accounting is exact: N cells over one program produce one
  // frontend miss and N-1 hits, nothing more.
  const SuiteProgram *P = findSuiteProgram("vortex");
  ASSERT_NE(P, nullptr);
  cache::ArtifactCache Cache;
  auto Source = std::make_shared<const std::string>(P->Source);
  std::vector<BatchJob> Batch;
  for (PlacementScheme Scheme :
       {PlacementScheme::NI, PlacementScheme::LLS, PlacementScheme::ALL}) {
    PipelineOptions PO;
    PO.Opt.Scheme = Scheme;
    PO.Cache.Enabled = true;
    PO.Cache.Cache = &Cache;
    Batch.push_back({Source, PO});
  }
  for (const BatchJobResult &R : BatchCompiler(1).run(Batch))
    EXPECT_TRUE(R.Result.Success);
  cache::ArtifactCache::Stats S = Cache.stats();
  EXPECT_EQ(S.FrontendMisses, 1u);
  EXPECT_EQ(S.FrontendHits, Batch.size() - 1);
}

TEST(Determinism, DeltaIgnoresUnrelatedPriorWork) {
  // The snapshot delta must isolate the bracketed region: two deltas of
  // the same work are identical even when other compiles ran in between.
  const SuiteProgram *P = findSuiteProgram("vortex");
  ASSERT_NE(P, nullptr);
  obs::StatSnapshot::FlatMap First = compileDelta(*P, PlacementScheme::SE);
  compileDelta(*P, PlacementScheme::ALL); // unrelated interleaved work
  obs::StatSnapshot::FlatMap Second = compileDelta(*P, PlacementScheme::SE);
  EXPECT_EQ(First, Second);
}

} // namespace
