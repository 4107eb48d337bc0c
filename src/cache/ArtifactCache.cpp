#include "cache/ArtifactCache.h"

#include "obs/Json.h"
#include "support/StringUtils.h"

using namespace nascent;
using namespace nascent::cache;
using support::Hash128;
using support::StableHasher;

ArtifactCache::ArtifactCache(uint64_t MaxBytes) : MaxBytes(MaxBytes) {}

ArtifactCache &ArtifactCache::global() {
  // Leaked, like the stat registry: worker threads may still hold entry
  // references while the process shuts down.
  static ArtifactCache *C = new ArtifactCache();
  return *C;
}

template <typename T>
std::shared_ptr<const T> ArtifactCache::find(ShardedMap<T> &M,
                                             const Hash128 &Key) {
  Shard<T> &S = M.shardFor(Key);
  std::lock_guard<std::mutex> L(S.Mu);
  auto It = S.Map.find(Key);
  return It == S.Map.end() ? nullptr : It->second;
}

template <typename T>
std::shared_ptr<const T> ArtifactCache::store(ShardedMap<T> &M,
                                              const Hash128 &Key,
                                              std::shared_ptr<const T> V,
                                              uint64_t Bytes) {
  Shard<T> &S = M.shardFor(Key);
  std::lock_guard<std::mutex> L(S.Mu);
  auto [It, Inserted] = S.Map.emplace(Key, std::move(V));
  if (!Inserted)
    return It->second; // concurrent duplicate build: first store wins
  S.Order.emplace_back(Key, Bytes);
  S.Bytes += Bytes;
  TotalBytes.fetch_add(Bytes, std::memory_order_relaxed);
  // FIFO eviction against this shard's slice of the budget. Evicted
  // entries stay alive through any shared_ptr a reader already holds.
  uint64_t ShardBudget = MaxBytes / NumShards;
  while (S.Bytes > ShardBudget && S.Order.size() > 1 &&
         !(S.Order.front().first == Key)) {
    auto [Oldest, OldBytes] = S.Order.front();
    S.Order.pop_front();
    S.Map.erase(Oldest);
    S.Bytes -= OldBytes < S.Bytes ? OldBytes : S.Bytes;
    TotalBytes.fetch_sub(OldBytes, std::memory_order_relaxed);
    Evictions.fetch_add(1, std::memory_order_relaxed);
  }
  return It->second;
}

std::shared_ptr<const FrontendArtifact>
ArtifactCache::findFrontend(const Hash128 &Key) {
  std::shared_ptr<const FrontendArtifact> A = find(Frontends, Key);
  (A ? FrontendHits : FrontendMisses).fetch_add(1, std::memory_order_relaxed);
  return A;
}

void ArtifactCache::storeFrontend(const Hash128 &Key,
                                  std::unique_ptr<const Module> Snapshot) {
  auto A = std::make_shared<FrontendArtifact>();
  A->Bytes = approxModuleBytes(*Snapshot);
  A->Snapshot = std::move(Snapshot);
  uint64_t Bytes = A->Bytes;
  store<FrontendArtifact>(Frontends, Key, std::move(A), Bytes);
}

std::shared_ptr<const ContextSeed>
ArtifactCache::findContextSeed(const Hash128 &Key) {
  std::shared_ptr<const ContextSeed> S = find(Seeds, Key);
  (S ? ContextHits : ContextMisses).fetch_add(1, std::memory_order_relaxed);
  return S;
}

void ArtifactCache::storeContextSeed(const Hash128 &Key, ContextSeed Seed) {
  Seed.Bytes = approxContextSeedBytes(Seed);
  uint64_t Bytes = Seed.Bytes;
  store<ContextSeed>(Seeds, Key,
                     std::make_shared<const ContextSeed>(std::move(Seed)),
                     Bytes);
}

std::shared_ptr<const LoopArtifacts>
ArtifactCache::findLoopArtifacts(const Hash128 &Key) {
  std::shared_ptr<const LoopArtifacts> LA = find(Loops, Key);
  (LA ? LoopHits : LoopMisses).fetch_add(1, std::memory_order_relaxed);
  return LA;
}

std::shared_ptr<const LoopArtifacts>
ArtifactCache::storeLoopArtifacts(const Hash128 &Key,
                                  std::shared_ptr<const LoopArtifacts> LA) {
  uint64_t Bytes = approxLoopArtifactBytes(*LA);
  return store<LoopArtifacts>(Loops, Key, std::move(LA), Bytes);
}

Hash128 ArtifactCache::functionKey(const Hash128 &ModuleKey,
                                   const Function &F) {
  StableHasher NameMix;
  NameMix.u64(ModuleKey.Lo);
  NameMix.u64(ModuleKey.Hi);
  NameMix.str(F.name());
  Hash128 MemoKey = NameMix.digest();

  {
    std::lock_guard<std::mutex> L(FnKeyMu);
    auto It = FnKeys.find(MemoKey);
    if (It != FnKeys.end())
      return It->second;
  }
  Hash128 Content = hashFunctionContent(F);
  std::lock_guard<std::mutex> L(FnKeyMu);
  FnKeys.emplace(MemoKey, Content);
  return Content;
}

ArtifactCache::Stats ArtifactCache::stats() const {
  Stats S;
  S.FrontendHits = FrontendHits.load(std::memory_order_relaxed);
  S.FrontendMisses = FrontendMisses.load(std::memory_order_relaxed);
  S.ContextHits = ContextHits.load(std::memory_order_relaxed);
  S.ContextMisses = ContextMisses.load(std::memory_order_relaxed);
  S.LoopHits = LoopHits.load(std::memory_order_relaxed);
  S.LoopMisses = LoopMisses.load(std::memory_order_relaxed);
  S.Bytes = TotalBytes.load(std::memory_order_relaxed);
  S.Evictions = Evictions.load(std::memory_order_relaxed);
  return S;
}

void ArtifactCache::resetStats() {
  FrontendHits = FrontendMisses = 0;
  ContextHits = ContextMisses = 0;
  LoopHits = LoopMisses = 0;
  Evictions = 0;
}

void ArtifactCache::clear() {
  auto ClearMap = [this](auto &M) {
    for (auto &S : M.Shards) {
      std::lock_guard<std::mutex> L(S.Mu);
      S.Map.clear();
      S.Order.clear();
      S.Bytes = 0;
    }
  };
  ClearMap(Frontends);
  ClearMap(Seeds);
  ClearMap(Loops);
  {
    std::lock_guard<std::mutex> L(FnKeyMu);
    FnKeys.clear();
  }
  TotalBytes = 0;
}

void ArtifactCache::writeStatsJson(obs::JsonWriter &W) const {
  Stats S = stats();
  W.beginObject();
  W.key("frontend").beginObject();
  W.kv("hits", S.FrontendHits);
  W.kv("misses", S.FrontendMisses);
  W.endObject();
  W.key("analysis").beginObject();
  W.kv("hits", S.analysisHits());
  W.kv("misses", S.analysisMisses());
  W.endObject();
  W.kv("bytes", S.Bytes);
  W.kv("maxBytes", MaxBytes);
  W.kv("evictions", S.Evictions);
  W.endObject();
}

std::string ArtifactCache::summaryLine() const {
  Stats S = stats();
  return formatString(
      "cache: frontend %llu/%llu hits, analysis %llu/%llu hits, "
      "%.1f KB, %llu evictions",
      static_cast<unsigned long long>(S.FrontendHits),
      static_cast<unsigned long long>(S.FrontendHits + S.FrontendMisses),
      static_cast<unsigned long long>(S.analysisHits()),
      static_cast<unsigned long long>(S.analysisHits() + S.analysisMisses()),
      static_cast<double>(S.Bytes) / 1024.0,
      static_cast<unsigned long long>(S.Evictions));
}

Hash128 nascent::cache::hashFrontendKey(const std::string &Source,
                                        const LoweringOptions &Lowering,
                                        unsigned CheckSourceKind) {
  StableHasher H;
  H.str(Source);
  H.boolean(Lowering.InsertChecks);
  H.u64(CheckSourceKind);
  return H.digest();
}

namespace {

void hashValue(StableHasher &H, const Value &V) {
  H.u64(static_cast<uint64_t>(V.kind()));
  switch (V.kind()) {
  case Value::Kind::None:
    break;
  case Value::Kind::Sym:
    H.u32(V.symbol());
    break;
  case Value::Kind::IntConst:
  case Value::Kind::BoolConst:
    H.i64(V.intValue());
    break;
  case Value::Kind::RealConst:
    H.f64(V.realValue());
    break;
  }
}

void hashLinearExpr(StableHasher &H, const LinearExpr &E) {
  H.u64(E.terms().size());
  for (const auto &[Sym, Coeff] : E.terms()) {
    H.u32(Sym);
    H.i64(Coeff);
  }
  H.i64(E.constantPart());
}

void hashCheckExpr(StableHasher &H, const CheckExpr &C) {
  hashLinearExpr(H, C.expr());
  H.i64(C.bound());
}

void hashInstruction(StableHasher &H, const Instruction &I) {
  H.u64(static_cast<uint64_t>(I.Op));
  H.u32(I.Dest);
  H.u64(I.Operands.size());
  for (const Value &V : I.Operands)
    hashValue(H, V);
  H.u32(I.Array);
  H.u64(I.Indices.size());
  for (const Value &V : I.Indices)
    hashValue(H, V);
  hashCheckExpr(H, I.Check);
  H.u64(I.Guards.size());
  for (const CheckExpr &G : I.Guards)
    hashCheckExpr(H, G);
  H.str(I.Origin.ArrayName);
  H.i64(I.Origin.Dim);
  H.boolean(I.Origin.IsUpper);
  H.u32(I.Origin.Loc.Line);
  H.u32(I.Origin.Loc.Column);
  H.u32(I.Tag);
  H.str(I.Callee);
  H.u32(I.TrueTarget);
  H.u32(I.FalseTarget);
  H.u32(I.Loc.Line);
  H.u32(I.Loc.Column);
}

} // namespace

Hash128 nascent::cache::hashFunctionContent(const Function &F) {
  StableHasher H;
  H.str(F.name());

  // Symbol table: identity of every SymbolID the instructions reference.
  H.u64(F.symbols().size());
  for (const Symbol &S : F.symbols().symbols()) {
    H.u64(static_cast<uint64_t>(S.Kind));
    H.str(S.Name);
    H.u64(static_cast<uint64_t>(S.Type));
    H.boolean(S.IsParam);
    H.u64(static_cast<uint64_t>(S.Shape.Element));
    H.u64(S.Shape.Dims.size());
    for (const ArrayDim &D : S.Shape.Dims) {
      H.i64(D.Lower);
      H.i64(D.Upper);
    }
  }
  H.u64(F.params().size());
  for (SymbolID P : F.params())
    H.u32(P);

  // CFG and instructions.
  H.u64(F.numBlocks());
  for (const auto &BB : F) {
    H.u32(BB->id());
    H.u64(BB->size());
    for (const Instruction &I : BB->instructions())
      hashInstruction(H, I);
  }

  // Do-loop metadata: LoopInfo::attachDoLoopMetadata and the preheader
  // schemes read it, so it is part of the analysed content.
  H.u64(F.doLoops().size());
  for (const DoLoopInfo &DL : F.doLoops()) {
    H.u32(DL.Preheader);
    H.u32(DL.Header);
    H.u32(DL.BodyEntry);
    H.u32(DL.Latch);
    H.u32(DL.Exit);
    H.u32(DL.IndexVar);
    hashLinearExpr(H, DL.LowerBound);
    hashLinearExpr(H, DL.UpperBound);
    H.i64(DL.Step);
    H.u32(DL.BasicVar);
  }

  // The tag counter: two content-equal functions with different next-tag
  // state would replay optimizer insertions with different tags.
  H.u32(F.lastCheckTag());
  return H.digest();
}

uint64_t nascent::cache::approxModuleBytes(const Module &M) {
  uint64_t B = sizeof(Module);
  for (const Function *F : M.functions()) {
    B += sizeof(Function) + F->name().size();
    B += F->symbols().size() * (sizeof(Symbol) + 16);
    B += F->doLoops().size() * sizeof(DoLoopInfo);
    for (const auto &BB : *F) {
      B += sizeof(BasicBlock) + BB->name().size();
      for (const Instruction &I : BB->instructions()) {
        B += sizeof(Instruction);
        for (const ValueList *L : {&I.Operands, &I.Indices})
          if (!L->isInline())
            B += L->capacity() * sizeof(Value);
        B += I.Guards.size() * sizeof(CheckExpr);
        B += (I.Check.expr().terms().size() + 2) * 16;
        B += I.Origin.ArrayName.size() + I.Callee.size();
      }
    }
  }
  return B;
}

uint64_t nascent::cache::approxContextSeedBytes(const ContextSeed &S) {
  uint64_t B = sizeof(ContextSeed);
  if (S.U)
    B += S.U->size() * 48; // checks + family/symbol indices
  if (!S.Core)
    return B;
  const ContextCore &C = *S.Core;
  B += sizeof(ContextCore);
  B += C.InstBase.size() * sizeof(uint32_t) +
       C.InstCheck.size() * sizeof(CheckID) +
       C.InstDest.size() * sizeof(SymbolID);
  for (const CheckOrigin &O : C.RepOrigin)
    B += sizeof(CheckOrigin) + O.ArrayName.size();
  for (const BitRows *T : {&C.GenIn, &C.Kill, &C.AvailGen, &C.AnticGen,
                           &C.Closure, &C.FamClosure})
    B += T->bytes();
  B += C.Order.RPO.size() * sizeof(BlockID) +
       C.Order.Position.size() * sizeof(uint32_t);
  return B;
}

uint64_t nascent::cache::approxLoopArtifactBytes(const LoopArtifacts &LA) {
  uint64_t B = sizeof(LoopArtifacts);
  B += LA.DT.rpo().size() * 48; // idom/rpo/children/frontier rows
  B += LA.LI.numLoops() * (sizeof(Loop) + 64);
  return B;
}
