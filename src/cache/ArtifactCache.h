//===----------------------------------------------------------------------===//
///
/// \file
/// Content-addressed compilation cache shared across a BatchCompiler
/// batch (docs/caching.md). Two artifact tiers:
///
///  * Frontend: a verified post-lowering Module snapshot keyed by
///    (source bytes, lowering options, check source). On a hit the
///    pipeline clones the snapshot and skips parse/sema/lower/verify.
///  * Analysis: per-function, keyed by the content hash of the
///    (critical-edge-split) IR — a CheckContext seed (universe, transfer
///    sets, closures) keyed additionally by the implication mode, and the
///    dominator-tree/loop-forest pair, which is mode-independent.
///
/// Thread safety: the maps are sharded by key with one mutex per shard;
/// the hot path (one lookup per tier per compile) never takes a global
/// lock. Entries are immutable once stored and handed out as
/// shared_ptr<const>, so readers on other workers are safe even while a
/// shard evicts. Eviction is per-shard FIFO against a byte budget.
///
/// Hit/miss/byte counters are plain atomics on the cache itself, NOT
/// StatRegistry stats: the registry's snapshot deltas are the byte-exact
/// work maps the determinism gates compare, and cache counters would make
/// a cache-on run's work maps differ from cache-off (and differ per job
/// schedule). See docs/caching.md.
///
//===----------------------------------------------------------------------===//

#ifndef NASCENT_CACHE_ARTIFACTCACHE_H
#define NASCENT_CACHE_ARTIFACTCACHE_H

#include "analysis/Dataflow.h"
#include "analysis/Dominators.h"
#include "analysis/LoopInfo.h"
#include "checks/CheckUniverse.h"
#include "frontend/Lowering.h"
#include "ir/Function.h"
#include "support/DenseBitVector.h"
#include "support/Hash.h"

#include <array>
#include <atomic>
#include <deque>
#include <memory>
#include <mutex>
#include <ostream>
#include <unordered_map>

namespace nascent {

namespace obs {
class JsonWriter;
}

namespace cache {

/// A cached frontend result: the verified post-lowering module (before
/// INX synthesis and before optimization), ready to clone.
struct FrontendArtifact {
  std::unique_ptr<const Module> Snapshot;
  uint64_t Bytes = 0;
};

/// Write-once memo for the two global data-flow solves a CheckContext can
/// answer (availability, anticipatability). The box is shared by every
/// context built from one seed — the organic build that produced the seed
/// included — so each problem is solved once per (function, mode) and
/// every later consumer (strengthening, LCM, preheader insertion,
/// elimination, across all grid cells sharing the seed) replays the first
/// solve's exact telemetry (visit counts, bit-vector word ops) instead of
/// re-iterating to the same fixpoint.
struct SolveMemo {
  std::mutex Mu;
  /// Release-published after the result below is fully written; readers
  /// acquire-load them and on true read the result without the mutex.
  std::atomic<bool> AvailReady{false};
  std::atomic<bool> AnticReady{false};
  DataflowResult Avail;
  DataflowResult Antic;
  /// Bit-vector word ops the first solve performed, credited back to the
  /// replaying thread on a memo hit (docs/caching.md).
  uint64_t AvailWordOps = 0;
  uint64_t AnticWordOps = 0;
};

/// The immutable heart of a built CheckContext: per-instruction check
/// ids, representative origins, the block and closure tables, and the
/// CFG's visiting order. Shared by reference between a seed and every
/// context built from it — none of these tables changes after
/// construction, so a seeded context binds to the shared instance
/// instead of copying them per hit.
struct ContextCore {
  /// Per-instruction check ids, flat in block order: instruction (B, Idx)
  /// is InstCheck[InstBase[B] + Idx]; InstBase ends one past the last
  /// block.
  std::vector<uint32_t> InstBase;
  std::vector<CheckID> InstCheck;
  /// Per-instruction destination symbol (InvalidSymbol for none), in the
  /// same flat order: the block transfer sets are built from these two
  /// tables without revisiting the instructions.
  std::vector<SymbolID> InstDest;
  std::vector<CheckOrigin> RepOrigin;
  /// Per-block sets, one universe-wide row per BlockID: entry facts,
  /// kills, availability gen (entry-fact survivors included) and
  /// anticipatability gen. AnticGen is built on first use: only contexts
  /// that solve anticipatability or read ANTLOC pay for it. A seed's core
  /// always has it (makeSeed builds it before sharing), along with the
  /// word ops that build cost, for each seeded reader to replay.
  BitRows GenIn;
  BitRows Kill;
  BitRows AvailGen;
  BitRows AnticGen;
  bool AnticGenBuilt = false;
  uint64_t AnticGenWordOps = 0;
  /// Per-check weaker-closures, one row per CheckID: the availability
  /// flavour and the family-restricted (anticipatability) flavour.
  BitRows Closure;
  BitRows FamClosure;
  /// The reverse post-order every solve over this context visits.
  BlockOrder Order;
};

/// A cached CheckContext build for one function at one implication mode:
/// every member the constructor computes, in post-constructor state, plus
/// the bit-vector word-op count the organic build performed so a seeded
/// rebuild can replay the exact work-proxy delta (docs/caching.md).
struct ContextSeed {
  /// Shared immutable universe: every context built from this seed reads
  /// the same instance instead of copying the intern maps per hit.
  std::shared_ptr<const CheckUniverse> U;
  /// Shared immutable tables (see ContextCore).
  std::shared_ptr<const ContextCore> Core;
  /// Word-parallel bit-vector ops the organic build spent constructing
  /// the core tables (credited back on a seeded build).
  uint64_t BuildWordOps = 0;
  uint64_t Bytes = 0;
  /// Shared solve memo (see SolveMemo); populated lazily by whichever
  /// context sharing this seed solves each problem first.
  std::shared_ptr<SolveMemo> Solves;
};

/// A cached dominator-tree + loop-forest pair. Both structures are pure
/// BlockID tables with no back-reference to the Function they were built
/// from, so one build serves every identical clone of that function.
struct LoopArtifacts {
  explicit LoopArtifacts(const Function &F) : DT(F), LI(F, DT) {}

  DominatorTree DT;
  LoopInfo LI;
};

/// The thread-safe, content-addressed artifact cache.
class ArtifactCache {
public:
  /// Hit/miss/size counters. "Analysis" aggregates the context-seed and
  /// loop-artifact tiers when surfaced (cacheStats JSON, --cache summary).
  struct Stats {
    uint64_t FrontendHits = 0;
    uint64_t FrontendMisses = 0;
    uint64_t ContextHits = 0;
    uint64_t ContextMisses = 0;
    uint64_t LoopHits = 0;
    uint64_t LoopMisses = 0;
    uint64_t Bytes = 0;
    uint64_t Evictions = 0;

    uint64_t analysisHits() const { return ContextHits + LoopHits; }
    uint64_t analysisMisses() const { return ContextMisses + LoopMisses; }
  };

  /// \p MaxBytes caps the evictable tiers (frontend snapshots, context
  /// seeds, loop artifacts), enforced per shard FIFO-oldest-first.
  explicit ArtifactCache(uint64_t MaxBytes = DefaultMaxBytes);

  /// The process-global cache, shared by every pipeline that enables
  /// caching without supplying its own instance.
  static ArtifactCache &global();

  // Frontend tier.
  std::shared_ptr<const FrontendArtifact>
  findFrontend(const support::Hash128 &Key);
  void storeFrontend(const support::Hash128 &Key,
                     std::unique_ptr<const Module> Snapshot);

  // Analysis tier: CheckContext seeds (key = mix(function key, mode)).
  std::shared_ptr<const ContextSeed>
  findContextSeed(const support::Hash128 &Key);
  void storeContextSeed(const support::Hash128 &Key, ContextSeed Seed);

  // Analysis tier: dominators + loops (key = function key).
  std::shared_ptr<const LoopArtifacts>
  findLoopArtifacts(const support::Hash128 &Key);
  std::shared_ptr<const LoopArtifacts>
  storeLoopArtifacts(const support::Hash128 &Key,
                     std::shared_ptr<const LoopArtifacts> LA);

  /// The content key of \p F's current IR, memoised under
  /// mix(ModuleKey, name): every compile of the same frontend snapshot
  /// reaches the identical IR for each function (cloning and critical-edge
  /// splitting are deterministic), so the IR walk happens once per
  /// (module, function) rather than once per grid cell.
  support::Hash128 functionKey(const support::Hash128 &ModuleKey,
                               const Function &F);

  Stats stats() const;
  void resetStats();

  /// Drops every entry (the memoised function keys included) and zeroes
  /// the byte gauge. Counters are left to resetStats().
  void clear();

  uint64_t maxBytes() const { return MaxBytes; }

  /// {"frontend":{"hits":..,"misses":..},"analysis":{...},
  ///  "bytes":..,"maxBytes":..,"evictions":..}
  void writeStatsJson(obs::JsonWriter &W) const;

  /// One human-readable summary line (no trailing newline), e.g.
  /// "cache: frontend 260/270 hits, analysis 508/568 hits, 1.2 MB".
  std::string summaryLine() const;

private:
  static constexpr uint64_t DefaultMaxBytes = 256ull << 20;
  static constexpr size_t NumShards = 16;

  template <typename T> struct Shard {
    std::mutex Mu;
    std::unordered_map<support::Hash128, std::shared_ptr<const T>,
                       support::Hash128Hasher>
        Map;
    /// Insertion order for FIFO eviction, with each entry's byte estimate.
    std::deque<std::pair<support::Hash128, uint64_t>> Order;
    uint64_t Bytes = 0;
  };

  template <typename T> struct ShardedMap {
    std::array<Shard<T>, NumShards> Shards;

    Shard<T> &shardFor(const support::Hash128 &Key) {
      return Shards[Key.Lo % NumShards];
    }
  };

  template <typename T>
  std::shared_ptr<const T> find(ShardedMap<T> &M,
                                const support::Hash128 &Key);
  template <typename T>
  std::shared_ptr<const T> store(ShardedMap<T> &M,
                                 const support::Hash128 &Key,
                                 std::shared_ptr<const T> V, uint64_t Bytes);

  uint64_t MaxBytes;

  ShardedMap<FrontendArtifact> Frontends;
  ShardedMap<ContextSeed> Seeds;
  ShardedMap<LoopArtifacts> Loops;

  std::mutex FnKeyMu;
  std::unordered_map<support::Hash128, support::Hash128,
                     support::Hash128Hasher>
      FnKeys;

  std::atomic<uint64_t> FrontendHits{0}, FrontendMisses{0};
  std::atomic<uint64_t> ContextHits{0}, ContextMisses{0};
  std::atomic<uint64_t> LoopHits{0}, LoopMisses{0};
  std::atomic<uint64_t> TotalBytes{0};
  std::atomic<uint64_t> Evictions{0};
};

/// Key of the frontend tier: the source bytes, the lowering options, and
/// the check-source kind. The check source does not change the snapshot
/// itself (INX synthesis runs on the clone), but it is part of the key so
/// downstream function-content memoisation never aliases PRX and INX
/// compiles of one source.
support::Hash128 hashFrontendKey(const std::string &Source,
                                 const LoweringOptions &Lowering,
                                 unsigned CheckSourceKind);

/// Content hash of one function's current IR: blocks, instructions (all
/// semantic fields, check payloads, tags, origins, locations), the symbol
/// table, parameters, and do-loop metadata. Two functions with equal
/// hashes optimize identically.
support::Hash128 hashFunctionContent(const Function &F);

/// Rough retained-size estimates for the byte budget.
uint64_t approxModuleBytes(const Module &M);
uint64_t approxContextSeedBytes(const ContextSeed &S);
uint64_t approxLoopArtifactBytes(const LoopArtifacts &LA);

} // namespace cache
} // namespace nascent

#endif // NASCENT_CACHE_ARTIFACTCACHE_H
