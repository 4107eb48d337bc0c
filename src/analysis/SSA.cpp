#include "analysis/SSA.h"

#include <algorithm>

using namespace nascent;

SSA::SSA(const Function &F, const DominatorTree &DT) : F(F) {
  size_t NumBlocks = F.numBlocks();

  // Lay the instructions out flat in block order and size each one's run
  // of use entries; rename fills them in dominator-tree order.
  InstBase.resize(NumBlocks + 1);
  uint32_t NumInsts = 0;
  for (size_t B = 0; B != NumBlocks; ++B) {
    InstBase[B] = NumInsts;
    NumInsts += static_cast<uint32_t>(F.block(static_cast<BlockID>(B))->size());
  }
  InstBase[NumBlocks] = NumInsts;
  UseBegin.reserve(NumInsts + 1);
  uint32_t NumUses = 0;
  for (const auto &BB : F)
    for (const Instruction &I : BB->instructions()) {
      UseBegin.push_back(NumUses);
      forEachSymbolUse(I, F.symbols(), [&](SymbolID) { ++NumUses; });
    }
  UseBegin.push_back(NumUses);
  Uses.assign(NumUses, InvalidSSAValue);
  InstDefs.assign(NumInsts, InvalidSSAValue);

  // Entry values for every scalar symbol.
  EntryValues.assign(F.symbols().size(), InvalidSSAValue);
  for (SymbolID S = 0; S != F.symbols().size(); ++S) {
    if (F.symbols().get(S).isArray())
      continue;
    SSADef D;
    D.K = SSADef::Kind::Entry;
    D.Sym = S;
    EntryValues[S] = static_cast<SSAValueID>(Defs.size());
    Defs.push_back(D);
  }

  placePhis(DT);
  rename(DT);
}

void SSA::placePhis(const DominatorTree &DT) {
  size_t NumSyms = F.symbols().size();
  size_t NumBlocks = F.numBlocks();
  BlockID Entry = F.entryBlock();
  auto IsScalar = [&](SymbolID S) { return !F.symbols().get(S).isArray(); };

  // Def blocks per symbol, grouped by symbol: the SiteLen[S] blocks from
  // Sites[SiteBegin[S]] in ascending order, without repeats. The entry
  // block implicitly defines every scalar.
  std::vector<uint32_t> SiteBegin(NumSyms + 1, 0);
  std::vector<BlockID> LastSite(NumSyms, InvalidBlock);
  auto ForEachSite = [&](auto &&Fn) {
    for (BlockID B : DT.rpo())
      for (const Instruction &I : F.block(B)->instructions())
        if (I.Dest != InvalidSymbol && IsScalar(I.Dest) &&
            LastSite[I.Dest] != B) {
          LastSite[I.Dest] = B;
          Fn(I.Dest, B);
        }
  };
  ForEachSite([&](SymbolID S, BlockID) { ++SiteBegin[S + 1]; });
  for (SymbolID S = 0; S != NumSyms; ++S)
    SiteBegin[S + 1] += SiteBegin[S] + (IsScalar(S) ? 1 : 0);
  std::vector<BlockID> Sites(SiteBegin[NumSyms]);
  std::vector<uint32_t> Fill(SiteBegin.begin(), SiteBegin.end() - 1);
  for (SymbolID S = 0; S != NumSyms; ++S)
    if (IsScalar(S))
      Sites[Fill[S]++] = Entry;
  LastSite.assign(NumSyms, InvalidBlock);
  ForEachSite([&](SymbolID S, BlockID B) { Sites[Fill[S]++] = B; });
  std::vector<uint32_t> SiteLen(NumSyms);
  for (SymbolID S = 0; S != NumSyms; ++S) {
    auto First = Sites.begin() + SiteBegin[S];
    auto Last = Sites.begin() + SiteBegin[S + 1];
    std::sort(First, Last);
    SiteLen[S] = static_cast<uint32_t>(std::unique(First, Last) - First);
  }

  // Iterated dominance frontier per symbol, in symbol order. PhiFor[B]
  // names the symbol whose phi block B last received, so it needs no reset
  // per symbol. Most symbols are defined in one block besides the entry;
  // their phi blocks depend only on that block, so the sequence found for
  // the first such symbol is replayed for the rest.
  std::vector<SymbolID> PhiFor(NumBlocks, InvalidSymbol);
  std::vector<BlockID> Work;
  // Phis in creation order with their blocks; grouped by block below.
  std::vector<BlockID> PhiBlock;
  PhiBegin.assign(NumBlocks + 1, 0);
  constexpr uint32_t NotComputed = ~uint32_t(0);
  std::vector<uint32_t> SeqBegin(NumBlocks, NotComputed), SeqEnd(NumBlocks);
  std::vector<BlockID> SeqPool;
  auto AddPhi = [&](SymbolID S, BlockID FB) {
    SSAPhi P;
    P.Sym = S;
    P.NumIncoming = static_cast<uint32_t>(F.block(FB)->preds().size());
    SSADef D;
    D.K = SSADef::Kind::Phi;
    D.Sym = S;
    D.Block = FB;
    D.InstIdx = PhiBegin[FB + 1]++; // counts FB's phis for now
    P.Result = static_cast<SSAValueID>(Defs.size());
    Defs.push_back(D);
    Phis.push_back(P);
    PhiBlock.push_back(FB);
  };
  for (SymbolID S = 0; S != NumSyms; ++S) {
    uint32_t Len = SiteLen[S];
    const BlockID *First = Sites.data() + SiteBegin[S], *Last = First + Len;
    if (Len == 0)
      continue;
    // The one block besides the entry, when there is exactly one.
    BlockID Key = InvalidBlock;
    if (Len == 1)
      Key = First[0];
    else if (Len == 2 && (First[0] == Entry || First[1] == Entry))
      Key = First[0] == Entry ? First[1] : First[0];
    if (Key != InvalidBlock && SeqBegin[Key] != NotComputed) {
      for (uint32_t K = SeqBegin[Key]; K != SeqEnd[Key]; ++K)
        AddPhi(S, SeqPool[K]);
      continue;
    }
    uint32_t Begin = static_cast<uint32_t>(SeqPool.size());
    Work.assign(First, Last);
    while (!Work.empty()) {
      BlockID B = Work.back();
      Work.pop_back();
      for (BlockID FB : DT.frontier(B)) {
        if (PhiFor[FB] == S)
          continue;
        PhiFor[FB] = S;
        AddPhi(S, FB);
        if (Key != InvalidBlock)
          SeqPool.push_back(FB);
        if (!std::binary_search(First, Last, FB))
          Work.push_back(FB);
      }
    }
    if (Key != InvalidBlock) {
      SeqBegin[Key] = Begin;
      SeqEnd[Key] = static_cast<uint32_t>(SeqPool.size());
    }
  }

  // Group the phis by block (stably, so each keeps its index within its
  // block) and give each a run of the incoming pool.
  for (size_t B = 0; B != F.numBlocks(); ++B)
    PhiBegin[B + 1] += PhiBegin[B];
  std::vector<SSAPhi> Grouped(Phis.size());
  std::vector<uint32_t> Next(PhiBegin.begin(), PhiBegin.end() - 1);
  for (size_t K = 0; K != Phis.size(); ++K)
    Grouped[Next[PhiBlock[K]]++] = Phis[K];
  Phis = std::move(Grouped);
  uint32_t NumIncoming = 0;
  for (SSAPhi &P : Phis) {
    P.IncomingBegin = NumIncoming;
    NumIncoming += P.NumIncoming;
  }
  Incoming.assign(NumIncoming, InvalidSSAValue);
}

void SSA::rename(const DominatorTree &DT) {
  // The current definition of each symbol, plus an undo log of the
  // definitions a block overrode, restored when the walk leaves it.
  std::vector<SSAValueID> Current = EntryValues;
  struct Undo {
    SymbolID Sym;
    SSAValueID Prev;
  };
  std::vector<Undo> Log;
  auto Define = [&](SymbolID S, SSAValueID V) {
    Log.push_back({S, Current[S]});
    Current[S] = V;
  };

  // Pre-compute, for each block, the index of each predecessor so phi
  // operands can be filled from the predecessor side.
  auto PredIndex = [&](BlockID Succ, BlockID Pred) -> int {
    const auto &Preds = F.block(Succ)->preds();
    for (size_t K = 0; K != Preds.size(); ++K)
      if (Preds[K] == Pred)
        return static_cast<int>(K);
    return -1;
  };

  // Iterative DFS over the dominator tree; each frame remembers the log
  // length at its entry.
  struct Frame {
    BlockID B;
    size_t NextChild = 0;
    size_t LogMark = 0;
    bool Entered = false;
  };
  std::vector<Frame> Stack;
  Stack.push_back({F.entryBlock(), 0, 0, false});

  while (!Stack.empty()) {
    Frame &Top = Stack.back();
    BlockID B = Top.B;

    if (!Top.Entered) {
      Top.Entered = true;
      Top.LogMark = Log.size();
      // Phi results become current definitions.
      for (const SSAPhi &P : phisIn(B))
        Define(P.Sym, P.Result);
      // Instructions: record uses at the pre-def point, then push defs.
      auto &BBInsts = F.block(B)->instructions();
      for (size_t Idx = 0; Idx != BBInsts.size(); ++Idx) {
        const Instruction &I = BBInsts[Idx];
        size_t Flat = InstBase[B] + Idx;
        SSAValueID *Use = Uses.data() + UseBegin[Flat];
        forEachSymbolUse(I, F.symbols(), [&](SymbolID S) {
          assert(Current[S] != InvalidSSAValue &&
                 "symbol has no reaching definition");
          *Use++ = Current[S];
        });
        if (I.Dest != InvalidSymbol && !F.symbols().get(I.Dest).isArray()) {
          SSADef D;
          D.K = SSADef::Kind::Inst;
          D.Sym = I.Dest;
          D.Block = B;
          D.InstIdx = static_cast<uint32_t>(Idx);
          SSAValueID V = static_cast<SSAValueID>(Defs.size());
          Defs.push_back(D);
          InstDefs[Flat] = V;
          Define(I.Dest, V);
        }
      }
      // Fill phi operands of CFG successors.
      for (BlockID S : F.block(B)->successors()) {
        int PI = PredIndex(S, B);
        if (PI < 0)
          continue;
        for (const SSAPhi &P : phisIn(S)) {
          assert(Current[P.Sym] != InvalidSSAValue &&
                 "phi operand has no definition");
          Incoming[P.IncomingBegin + static_cast<size_t>(PI)] = Current[P.Sym];
        }
      }
    }

    if (Top.NextChild < DT.children(B).size()) {
      BlockID Child = DT.children(B)[Top.NextChild++];
      Stack.push_back({Child, 0, 0, false});
      continue;
    }

    // Leaving: restore the definitions this block overrode.
    for (size_t K = Log.size(); K-- > Top.LogMark;)
      Current[Log[K].Sym] = Log[K].Prev;
    Log.resize(Top.LogMark);
    Stack.pop_back();
  }
}

SSAValueID SSA::useOfSymbol(BlockID B, size_t InstIdx, SymbolID Sym) const {
  const Instruction &I = F.block(B)->instructions()[InstIdx];
  std::span<const SSAValueID> InstUses = usesOf(B, InstIdx);
  size_t K = 0;
  SSAValueID Found = InvalidSSAValue;
  forEachSymbolUse(I, F.symbols(), [&](SymbolID S) {
    if (S == Sym && Found == InvalidSSAValue)
      Found = InstUses[K];
    ++K;
  });
  return Found;
}
