#include "opt/CheckContext.h"

#include "cache/ArtifactCache.h"
#include "obs/StatRegistry.h"

using namespace nascent;

NASCENT_STAT(NumContexts, "opt.context.builds",
             "check-analysis contexts built");
NASCENT_STAT_HISTOGRAM(UniverseSizes, "opt.context.universe_size",
                       "check-universe size per context");
NASCENT_STAT_HISTOGRAM(FamilyCounts, "opt.context.families",
                       "check families per context");
NASCENT_STAT_HISTOGRAM(KillSetSizes, "opt.context.kill_set_size",
                       "per-block kill-set population");
NASCENT_STAT(NumCigEdges, "checks.cig.edges",
             "implication edges in built CIGs");

CheckContext::CheckContext(const Function &F, ImplicationMode Mode,
                           const std::vector<PreheaderFact> &Facts,
                           obs::PhaseTimings *Phases)
    : F(F), Mode(Mode), Phases(Phases),
      OwnedU(/*FamilyPerCheck=*/Mode == ImplicationMode::None), U(OwnedU),
      OwnedCore(std::make_shared<cache::ContextCore>()), Core(*OwnedCore),
      CIG(U, Mode) {
  obs::ScopedPhase Scope(Phases, "cig-build");
  // Meter the build so a cache-seeded rebuild can replay its exact
  // word-op cost. Thread-local counter only: concurrent thread exits
  // (which fold into the retired total) cannot skew the delta.
  uint64_t OpsBefore = DenseBitVector::threadWordOps();
  buildUniverse(Facts);
  buildClosures();
  buildBlockSets();
  BuildWordOps = DenseBitVector::threadWordOps() - OpsBefore;
  recordBuildStats();
}

CheckContext::CheckContext(const Function &F, ImplicationMode Mode,
                           const cache::ContextSeed &Seed,
                           obs::PhaseTimings *Phases)
    : F(F), Mode(Mode), Phases(Phases), SharedU(Seed.U), U(*SharedU),
      SharedCore(Seed.Core), Core(*SharedCore), CIG(U, Mode) {
  obs::ScopedPhase Scope(Phases, "cig-seed");
  BuildWordOps = Seed.BuildWordOps;
  Solves = Seed.Solves;
  // Replay the bit-vector work of the organic build this seed stands in
  // for. The stat epilogue below then re-records the same counters and
  // histograms the organic constructor would have.
  DenseBitVector::creditThreadOps(Seed.BuildWordOps);
  recordBuildStats();
}

cache::ContextSeed CheckContext::makeSeed() const {
  cache::ContextSeed Seed;
  // Share our universe and table core (already shared if we were seeded
  // ourselves): no copies, at store time or per hit.
  Seed.U = SharedU ? SharedU
                   : std::make_shared<const CheckUniverse>(OwnedU);
  // The shared core must be complete and immutable: build the lazy
  // anticipatability rows now, but leave their cost to the first reader
  // (anticGen credits it), as a context that never reads them never
  // pays it.
  if (!Core.AnticGenBuilt) {
    uint64_t Ops0 = DenseBitVector::threadWordOps();
    buildAnticGen();
    DenseBitVector::debitThreadOps(DenseBitVector::threadWordOps() - Ops0);
  }
  Seed.Core = SharedCore
                  ? SharedCore
                  : std::shared_ptr<const cache::ContextCore>(OwnedCore);
  Seed.BuildWordOps = BuildWordOps;
  // Attach the shared solve memo to both this context and the seed, so
  // the first consumer to solve a data-flow problem — whether through
  // this (organic) context or any seeded copy — answers it for all.
  if (!Solves)
    Solves = std::make_shared<cache::SolveMemo>();
  Seed.Solves = Solves;
  return Seed;
}

void CheckContext::recordBuildStats() {
  ++NumContexts;
  CheckUniverse::creditInterned(U.size());
  UniverseSizes.record(U.size());
  FamilyCounts.record(U.numFamilies());
  NumCigEdges += CIG.numEdges();
  for (size_t B = 0, E = Core.Kill.numRows(); B != E; ++B)
    KillSetSizes.record(Core.Kill[B].count());
}

void CheckContext::buildUniverse(const std::vector<PreheaderFact> &Facts) {
  cache::ContextCore &W = *OwnedCore;
  W.InstBase.resize(F.numBlocks() + 1);
  uint32_t NumInsts = 0;
  for (const auto &BB : F) {
    W.InstBase[BB->id()] = NumInsts;
    NumInsts += static_cast<uint32_t>(BB->size());
  }
  W.InstBase[F.numBlocks()] = NumInsts;
  // One walk over the instructions records each one's destination,
  // marks the plain checks and counts them, so the universe's tables are
  // sized once (at most one entry per check instruction and preheader
  // fact) and interning touches only the marked instructions.
  constexpr CheckID Unnamed = InvalidCheck - 1;
  W.InstCheck.assign(NumInsts, InvalidCheck);
  W.InstDest.resize(NumInsts);
  size_t NumChecks = Facts.size(), NumTerms = 0;
  for (const auto &BB : F) {
    CheckID *Ids = W.InstCheck.data() + W.InstBase[BB->id()];
    SymbolID *Dests = W.InstDest.data() + W.InstBase[BB->id()];
    for (size_t Idx = 0; Idx != BB->size(); ++Idx) {
      const Instruction &I = BB->instructions()[Idx];
      Dests[Idx] = I.Dest;
      if (I.Op != Opcode::Check)
        continue;
      Ids[Idx] = Unnamed;
      ++NumChecks;
      NumTerms += I.Check.expr().terms().size();
    }
  }
  for (const PreheaderFact &PF : Facts)
    NumTerms += PF.Fact.expr().terms().size();
  OwnedU.reserve(NumChecks, NumTerms, F.symbols().size());
  W.RepOrigin.resize(NumChecks);
  for (const auto &BB : F) {
    CheckID *Ids = W.InstCheck.data() + W.InstBase[BB->id()];
    for (size_t Idx = 0; Idx != BB->size(); ++Idx) {
      if (Ids[Idx] != Unnamed)
        continue;
      const Instruction &I = BB->instructions()[Idx];
      CheckID C = OwnedU.intern(I.Check);
      Ids[Idx] = C;
      if (W.RepOrigin[C].ArrayName.empty())
        W.RepOrigin[C] = I.Origin;
    }
  }
  // Conditional checks participate through their facts; also intern their
  // main payloads so closures can reference them.
  StoredFacts.reserve(Facts.size());
  for (const PreheaderFact &PF : Facts)
    StoredFacts.push_back(
      {PF.BodyEntry, OwnedU.intern(PF.Fact), PF.Source});
  W.RepOrigin.resize(U.size());
}

CheckTag CheckContext::preheaderWitness(BlockID B, CheckID C) const {
  for (const FactInfo &FI : StoredFacts) {
    if (FI.Block != B || FI.Source == NoCheckTag)
      continue;
    if (FI.Id == C || weakerClosure(FI.Id).test(C))
      return FI.Source;
  }
  return NoCheckTag;
}

void CheckContext::applyKill(const Instruction &I,
                             DenseBitVector &Bits) const {
  if (I.Dest == InvalidSymbol)
    return;
  for (CheckID C : U.checksUsingSymbol(I.Dest))
    Bits.reset(C);
}

void CheckContext::applyAvailGen(BlockID B, size_t Idx, const Instruction &I,
                                 DenseBitVector &Bits) const {
  if (I.Op != Opcode::Check)
    return;
  CheckID C = Core.InstCheck[Core.InstBase[B] + Idx];
  if (C == InvalidCheck)
    return;
  Bits |= Core.Closure[C];
}

void CheckContext::applyAnticGen(BlockID B, size_t Idx, const Instruction &I,
                                 DenseBitVector &Bits) const {
  if (I.Op != Opcode::Check)
    return;
  CheckID C = Core.InstCheck[Core.InstBase[B] + Idx];
  if (C == InvalidCheck)
    return;
  Bits |= Core.FamClosure[C];
}

void CheckContext::buildClosures() {
  cache::ContextCore &W = *OwnedCore;
  size_t N = U.size();
  W.Closure = BitRows(N, N);
  W.FamClosure = BitRows(N, N);
  for (CheckID C = 0; C != N; ++C) {
    W.Closure[C].set(C);
    W.FamClosure[C].set(C);
  }
  // The context's CIG starts edge-free and no pass adds an implication
  // edge, so a closure has no cross-family part: under None and
  // CrossFamilyOnly every check implies only itself.
  if (Mode != ImplicationMode::All)
    return;

  // Same family: a member is as strong as every member with a bound at
  // least its own. Members are strictly bound-ascending, so that is the
  // suffix from the member on, and a running OR from the weakest member
  // down builds each closure with one row op per flavour.
  DenseBitVector Suffix(N);
  for (size_t FI = 0, NF = U.numFamilies(); FI != NF; ++FI) {
    std::span<const CheckID> Members =
        U.familyMembers(static_cast<FamilyID>(FI));
    for (size_t K = Members.size(); K-- > 0;) {
      Suffix.set(Members[K]);
      W.Closure[Members[K]] |= Suffix;
      W.FamClosure[Members[K]] |= Suffix;
    }
    for (CheckID M : Members)
      Suffix.reset(M);
  }
}

void CheckContext::buildBlockSets() {
  cache::ContextCore &W = *OwnedCore;
  size_t N = U.size(), NumBlocks = F.numBlocks();
  W.GenIn = BitRows(NumBlocks, N);
  for (const FactInfo &FI : StoredFacts)
    W.GenIn[FI.Block] |= W.Closure[FI.Id];
  W.Kill = BitRows(NumBlocks, N);
  W.AvailGen = BitRows(NumBlocks, N);

  // The scans read the flat destination and check-id tables filled by
  // buildUniverse instead of revisiting the instructions.
  for (BlockID B = 0; B != NumBlocks; ++B) {
    const CheckID *Ids = W.InstCheck.data() + W.InstBase[B];
    const SymbolID *Dests = W.InstDest.data() + W.InstBase[B];
    size_t Size = W.InstBase[B + 1] - W.InstBase[B];

    // Kill (the union over definitions) and availability gen, in one
    // forward scan starting from the entry facts.
    BitRow Kill = W.Kill[B], Running = W.AvailGen[B];
    Running.assign(W.GenIn[B]);
    for (size_t Idx = 0; Idx != Size; ++Idx) {
      if (Dests[Idx] != InvalidSymbol)
        for (CheckID C : U.checksUsingSymbol(Dests[Idx])) {
          Kill.set(C);
          Running.reset(C);
        }
      if (Ids[Idx] != InvalidCheck)
        Running |= W.Closure[Ids[Idx]];
    }
  }
  W.Order = BlockOrder(F);
}

const BitRows &CheckContext::anticGen() const {
  if (!Core.AnticGenBuilt) {
    buildAnticGen();
  } else if (!AnticGenPaid) {
    DenseBitVector::creditThreadOps(Core.AnticGenWordOps);
  }
  AnticGenPaid = true;
  return Core.AnticGen;
}

void CheckContext::buildAnticGen() const {
  // Only organic contexts reach the build: makeSeed completes it before
  // the core is shared.
  cache::ContextCore &W = *OwnedCore;
  uint64_t Ops0 = DenseBitVector::threadWordOps();
  size_t NumBlocks = F.numBlocks();
  W.AnticGen = BitRows(NumBlocks, U.size());
  // A backward scan per block from an empty exit set.
  for (BlockID B = 0; B != NumBlocks; ++B) {
    const CheckID *Ids = W.InstCheck.data() + W.InstBase[B];
    const SymbolID *Dests = W.InstDest.data() + W.InstBase[B];
    BitRow Back = W.AnticGen[B];
    for (size_t Idx = W.InstBase[B + 1] - W.InstBase[B]; Idx-- > 0;) {
      if (Dests[Idx] != InvalidSymbol)
        for (CheckID C : U.checksUsingSymbol(Dests[Idx]))
          Back.reset(C);
      if (Ids[Idx] != InvalidCheck)
        Back |= W.FamClosure[Ids[Idx]];
    }
  }
  W.AnticGenWordOps = DenseBitVector::threadWordOps() - Ops0;
  W.AnticGenBuilt = true;
}

DataflowResult CheckContext::solveAvailability() const {
  obs::ScopedPhase Scope(Phases, "solve-avail");
  auto Solve = [&] {
    DataflowProblem P;
    P.Dir = DataflowProblem::Direction::Forward;
    P.MeetOp = DataflowProblem::Meet::Intersect;
    P.UniverseSize = U.size();
    P.Gen = &Core.AvailGen;
    P.Kill = &Core.Kill;
    return solveDataflow(F, Core.Order, P);
  };
  if (!Solves)
    return Solve();
  // Cached compile: answer from the shared memo. The first solve runs
  // organically and records its telemetry inside solveDataflow; replays
  // credit the identical visit count and word ops to the calling thread,
  // so cache-on and cache-off runs emit byte-identical stats. Bit-vector
  // copies are not counted ops, so returning a copy is telemetry-free.
  // The ready flag is release-published after the result is complete, so
  // the replay fast path never takes the mutex.
  if (!Solves->AvailReady.load(std::memory_order_acquire)) {
    std::lock_guard<std::mutex> Lock(Solves->Mu);
    if (!Solves->AvailReady.load(std::memory_order_relaxed)) {
      uint64_t Ops0 = DenseBitVector::threadWordOps();
      Solves->Avail = Solve();
      Solves->AvailWordOps = DenseBitVector::threadWordOps() - Ops0;
      Solves->AvailReady.store(true, std::memory_order_release);
      return Solves->Avail;
    }
  }
  creditDataflowSolve(Solves->Avail.Visits);
  DenseBitVector::creditThreadOps(Solves->AvailWordOps);
  return Solves->Avail;
}

DataflowResult CheckContext::solveAnticipatability() const {
  obs::ScopedPhase Scope(Phases, "solve-antic");
  const BitRows &Gen = anticGen();
  auto Solve = [&] {
    DataflowProblem P;
    P.Dir = DataflowProblem::Direction::Backward;
    P.MeetOp = DataflowProblem::Meet::Intersect;
    P.UniverseSize = U.size();
    P.Gen = &Gen;
    P.Kill = &Core.Kill;
    return solveDataflow(F, Core.Order, P);
  };
  if (!Solves)
    return Solve();
  if (!Solves->AnticReady.load(std::memory_order_acquire)) {
    std::lock_guard<std::mutex> Lock(Solves->Mu);
    if (!Solves->AnticReady.load(std::memory_order_relaxed)) {
      uint64_t Ops0 = DenseBitVector::threadWordOps();
      Solves->Antic = Solve();
      Solves->AnticWordOps = DenseBitVector::threadWordOps() - Ops0;
      Solves->AnticReady.store(true, std::memory_order_release);
      return Solves->Antic;
    }
  }
  creditDataflowSolve(Solves->Antic.Visits);
  DenseBitVector::creditThreadOps(Solves->AnticWordOps);
  return Solves->Antic;
}

bool CheckContext::locallyAnticipates(BlockID B, CheckID C) const {
  const BasicBlock *BB = F.block(B);
  const CheckID *Ids = Core.InstCheck.data() + Core.InstBase[B];
  for (size_t Idx = 0; Idx != BB->size(); ++Idx) {
    const Instruction &I = BB->instructions()[Idx];
    if (I.Dest != InvalidSymbol) {
      bool Killed = false;
      for (CheckID K : U.checksUsingSymbol(I.Dest))
        if (K == C) {
          Killed = true;
          break;
        }
      if (Killed)
        return false;
    }
    if (I.Op == Opcode::Check && Ids[Idx] != InvalidCheck &&
        CIG.isAsStrongAs(Ids[Idx], C))
      return true;
  }
  return false;
}
