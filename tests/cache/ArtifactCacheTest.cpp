//===----------------------------------------------------------------------===//
///
/// \file
/// Unit tests for the content-addressed artifact cache (docs/caching.md):
/// key stability and discrimination, first-store-wins sharing, FIFO
/// eviction under a byte budget (with evicted entries surviving through
/// held references), and exact hit/miss reconciliation when the pipeline
/// compiles the same source repeatedly.
///
//===----------------------------------------------------------------------===//

#include "cache/ArtifactCache.h"
#include "driver/Pipeline.h"
#include "suite/Suite.h"
#include "support/Hash.h"

#include "gtest/gtest.h"

#include <algorithm>
#include <iterator>

using namespace nascent;
using support::Hash128;

namespace {

TEST(ArtifactCache, FrontendKeyIsStableAndDiscriminates) {
  LoweringOptions L;
  Hash128 A = cache::hashFrontendKey("program p\nend program", L, 0);
  Hash128 B = cache::hashFrontendKey("program p\nend program", L, 0);
  EXPECT_EQ(A, B);
  EXPECT_FALSE(A.isZero());
  EXPECT_EQ(A.hex().size(), 32u);

  // Any key component changing must change the key: the source bytes,
  // each lowering option, and the check-source kind (PRX vs INX share a
  // snapshot shape but must not share function-key memo entries).
  EXPECT_NE(cache::hashFrontendKey("program q\nend program", L, 0), A);
  LoweringOptions NoChecks = L;
  NoChecks.InsertChecks = false;
  EXPECT_NE(cache::hashFrontendKey("program p\nend program", NoChecks, 0), A);
  EXPECT_NE(cache::hashFrontendKey("program p\nend program", L, 1), A);
}

TEST(ArtifactCache, StableHasherIsOrderAndLengthSensitive) {
  support::StableHasher H1, H2, H3;
  H1.str("ab");
  H1.str("c");
  H2.str("a");
  H2.str("bc");
  H3.str("abc");
  // Length-prefixed fields: concatenation cannot alias a shifted split.
  EXPECT_NE(H1.digest(), H2.digest());
  EXPECT_NE(H2.digest(), H3.digest());
  // digest() is non-destructive.
  EXPECT_EQ(H3.digest(), H3.digest());
}

TEST(ArtifactCache, StableHasherDigestIgnoresHowTheStreamIsSplit) {
  // The hasher absorbs whole 8-byte words and holds a partial word until
  // the next call completes it: any split of one byte stream, and u64()
  // against its little-endian bytes at any alignment, give one digest.
  const SuiteProgram *P = findSuiteProgram("vortex");
  ASSERT_NE(P, nullptr);
  std::string Src = P->Source;
  Hash128 Whole = support::hashString(Src);
  for (size_t Step : {1u, 3u, 7u, 8u, 9u, 13u, 64u}) {
    support::StableHasher H;
    for (size_t I = 0; I < Src.size(); I += Step)
      H.bytes(Src.data() + I, std::min(Step, Src.size() - I));
    EXPECT_EQ(H.digest(), Whole) << "chunks of " << Step;
  }
  // Uneven cuts, some empty.
  support::StableHasher Uneven;
  size_t Cuts[] = {0, 0, 5, 6, 17, 40, 41, 300, Src.size()};
  for (size_t K = 0; K + 1 != std::size(Cuts); ++K)
    Uneven.bytes(Src.data() + Cuts[K], Cuts[K + 1] - Cuts[K]);
  EXPECT_EQ(Uneven.digest(), Whole);

  const uint64_t V = 0x0123456789abcdefull;
  uint8_t LE[8];
  for (int I = 0; I != 8; ++I)
    LE[I] = static_cast<uint8_t>(V >> (8 * I));
  for (size_t Lead = 0; Lead != 9; ++Lead) {
    support::StableHasher A, B;
    A.bytes(Src.data(), Lead);
    B.bytes(Src.data(), Lead);
    A.u64(V);
    B.bytes(LE, 8);
    A.str("tail");
    B.u64(4);
    B.bytes("tail", 4);
    EXPECT_EQ(A.digest(), B.digest()) << "u64 after " << Lead << " bytes";
  }
}

TEST(ArtifactCache, StableHasherByteFlipChangesBothLanes) {
  // Each lane absorbs a word through a bijection, so a stream that
  // differs in one byte differs in both 64-bit halves of the digest.
  const SuiteProgram *P = findSuiteProgram("trfd");
  ASSERT_NE(P, nullptr);
  std::string Src = P->Source;
  Hash128 Base = support::hashString(Src);
  for (size_t I = 0; I != Src.size(); ++I)
    for (unsigned char Flip : {0x01, 0x80, 0xff}) {
      std::string Mut = Src;
      Mut[I] = static_cast<char>(static_cast<unsigned char>(Mut[I]) ^ Flip);
      Hash128 H = support::hashString(Mut);
      ASSERT_NE(H.Lo, Base.Lo) << "byte " << I << " flip " << int(Flip);
      ASSERT_NE(H.Hi, Base.Hi) << "byte " << I << " flip " << int(Flip);
    }
}

TEST(ArtifactCache, FunctionContentKeyTracksIRContent) {
  const SuiteProgram *P = findSuiteProgram("vortex");
  ASSERT_NE(P, nullptr);
  PipelineOptions PO;
  PO.Optimize = false;
  CompileResult R = compileSource(P->Source, PO);
  ASSERT_TRUE(R.Success);
  Function *F = R.M->functions().front();

  // Identical clones hash identically — the property that lets one
  // analysis build serve every grid cell over the same snapshot.
  std::unique_ptr<Module> Clone = R.M->clone();
  EXPECT_EQ(cache::hashFunctionContent(*F),
            cache::hashFunctionContent(*Clone->functions().front()));

  // Any divergence — here a single instruction's source location, one of
  // the subtlest fields (it only affects diagnostics and provenance
  // output, not execution) — must change the key.
  Function *CF = Clone->functions().front();
  ASSERT_NE(CF->numBlocks(), 0u);
  BasicBlock &BB = **CF->begin();
  ASSERT_FALSE(BB.instructions().empty());
  BB.instructions().front().Loc.Line += 1;
  EXPECT_NE(cache::hashFunctionContent(*F), cache::hashFunctionContent(*CF));
}

TEST(ArtifactCache, FunctionKeyMemoisesPerModule) {
  const SuiteProgram *P = findSuiteProgram("vortex");
  ASSERT_NE(P, nullptr);
  PipelineOptions PO;
  PO.Optimize = false;
  CompileResult R = compileSource(P->Source, PO);
  ASSERT_TRUE(R.Success);
  Function *F = R.M->functions().front();

  cache::ArtifactCache C;
  Hash128 ModuleKey = cache::hashFrontendKey(P->Source, {}, 0);
  Hash128 K1 = C.functionKey(ModuleKey, *F);
  Hash128 K2 = C.functionKey(ModuleKey, *F);
  EXPECT_EQ(K1, K2);
  EXPECT_EQ(K1, cache::hashFunctionContent(*F));
  // Different module key, same function: distinct memo slots, same
  // content hash.
  Hash128 OtherModule = cache::hashFrontendKey(P->Source, {}, 1);
  EXPECT_EQ(C.functionKey(OtherModule, *F), K1);
}

TEST(ArtifactCache, FirstStoreWinsAndEntriesAreShared) {
  const SuiteProgram *P = findSuiteProgram("vortex");
  ASSERT_NE(P, nullptr);
  PipelineOptions PO;
  PO.Optimize = false;
  CompileResult R = compileSource(P->Source, PO);
  ASSERT_TRUE(R.Success);
  const Function &F = *R.M->functions().front();

  cache::ArtifactCache C;
  Hash128 Key{1, 2};
  auto First = std::make_shared<const cache::LoopArtifacts>(F);
  auto Second = std::make_shared<const cache::LoopArtifacts>(F);
  EXPECT_EQ(C.storeLoopArtifacts(Key, First), First);
  // A concurrent duplicate build stores second: the original entry wins
  // so every reader shares one artifact.
  EXPECT_EQ(C.storeLoopArtifacts(Key, Second), First);
  EXPECT_EQ(C.findLoopArtifacts(Key), First);
}

TEST(ArtifactCache, EvictionIsFifoWithinBudgetAndKeepsLiveReaders) {
  // A 16-byte budget gives each shard a 1-byte slice, so every store
  // overflows its shard and evicts all older entries in it. Keys with
  // equal Lo % 16 land in one shard, making the FIFO order observable.
  cache::ArtifactCache C(/*MaxBytes=*/16);
  Hash128 K1{16, 0}, K2{32, 0}, K3{48, 0};

  C.storeContextSeed(K1, cache::ContextSeed{});
  std::shared_ptr<const cache::ContextSeed> Held = C.findContextSeed(K1);
  ASSERT_NE(Held, nullptr);

  C.storeContextSeed(K2, cache::ContextSeed{});
  C.storeContextSeed(K3, cache::ContextSeed{});

  cache::ArtifactCache::Stats S = C.stats();
  EXPECT_EQ(S.Evictions, 2u);
  // Oldest entries are gone, the newest survives (the just-stored entry
  // is never evicted, even over budget).
  EXPECT_EQ(C.findContextSeed(K1), nullptr);
  EXPECT_EQ(C.findContextSeed(K2), nullptr);
  EXPECT_NE(C.findContextSeed(K3), nullptr);
  // The held reference outlives the eviction.
  EXPECT_EQ(Held->BuildWordOps, 0u);

  C.clear();
  EXPECT_EQ(C.findContextSeed(K3), nullptr);
  EXPECT_EQ(C.stats().Bytes, 0u);
}

TEST(ArtifactCache, PipelineHitsAndMissesReconcileExactly) {
  // K identical compiles against a fresh cache: the first misses every
  // tier it touches, each later compile repeats exactly the same lookups
  // as hits. NI builds exactly one cacheable elimination context per
  // function and no loop artifacts, so the arithmetic is exact.
  const SuiteProgram *P = findSuiteProgram("vortex");
  ASSERT_NE(P, nullptr);
  cache::ArtifactCache C;
  constexpr unsigned K = 4;
  uint64_t NumFunctions = 0;
  for (unsigned I = 0; I != K; ++I) {
    PipelineOptions PO;
    PO.Opt.Scheme = PlacementScheme::NI;
    PO.Cache.Enabled = true;
    PO.Cache.Cache = &C;
    CompileResult R = compileSource(P->Source, PO);
    ASSERT_TRUE(R.Success);
    NumFunctions = R.M->functions().size();
  }
  cache::ArtifactCache::Stats S = C.stats();
  EXPECT_EQ(S.FrontendMisses, 1u);
  EXPECT_EQ(S.FrontendHits, K - 1);
  EXPECT_EQ(S.ContextMisses, NumFunctions);
  EXPECT_EQ(S.ContextHits, (K - 1) * NumFunctions);
  EXPECT_EQ(S.LoopMisses, 0u);
  EXPECT_EQ(S.LoopHits, 0u);
  EXPECT_GT(S.Bytes, 0u);

  C.resetStats();
  S = C.stats();
  EXPECT_EQ(S.FrontendHits + S.FrontendMisses + S.analysisHits() +
                S.analysisMisses() + S.Evictions,
            0u);
  EXPECT_GT(S.Bytes, 0u); // resetStats keeps the contents (and the gauge)
}

} // namespace
