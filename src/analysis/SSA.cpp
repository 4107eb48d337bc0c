#include "analysis/SSA.h"

#include <algorithm>

using namespace nascent;

SSA::SSA(const Function &F, const DominatorTree &DT) : F(F) {
  size_t NumBlocks = F.numBlocks();
  BlockPhis.assign(NumBlocks, {});

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

  // Def blocks per symbol as one sorted (symbol, block) table; the entry
  // block implicitly defines everything. A symbol defined several times
  // in a block is noted once for it.
  std::vector<std::pair<SymbolID, BlockID>> Sites;
  std::vector<BlockID> LastSite(NumSyms, InvalidBlock);
  for (BlockID B : DT.rpo()) {
    for (const Instruction &I : F.block(B)->instructions())
      if (I.Dest != InvalidSymbol && !F.symbols().get(I.Dest).isArray() &&
          LastSite[I.Dest] != B) {
        LastSite[I.Dest] = B;
        Sites.push_back({I.Dest, B});
      }
  }
  for (SymbolID S = 0; S != NumSyms; ++S)
    if (!F.symbols().get(S).isArray())
      Sites.push_back({S, F.entryBlock()});
  std::sort(Sites.begin(), Sites.end());
  Sites.erase(std::unique(Sites.begin(), Sites.end()), Sites.end());

  // Iterated dominance frontier per symbol. PhiFor[B] names the symbol
  // whose phi block B last received, so it needs no reset per symbol.
  std::vector<SymbolID> PhiFor(F.numBlocks(), InvalidSymbol);
  std::vector<BlockID> Work;
  auto SiteIt = Sites.begin();
  while (SiteIt != Sites.end()) {
    SymbolID S = SiteIt->first;
    auto SiteEnd = std::find_if(SiteIt, Sites.end(),
                                [S](const auto &P) { return P.first != S; });
    auto IsDefBlock = [&](BlockID B) {
      return std::binary_search(SiteIt, SiteEnd, std::make_pair(S, B));
    };
    Work.clear();
    for (auto It = SiteIt; It != SiteEnd; ++It)
      Work.push_back(It->second);
    while (!Work.empty()) {
      BlockID B = Work.back();
      Work.pop_back();
      for (BlockID FB : DT.frontier(B)) {
        if (PhiFor[FB] == S)
          continue;
        PhiFor[FB] = S;
        SSAPhi P;
        P.Sym = S;
        P.Incoming.assign(F.block(FB)->preds().size(), InvalidSSAValue);
        SSADef D;
        D.K = SSADef::Kind::Phi;
        D.Sym = S;
        D.Block = FB;
        D.InstIdx = static_cast<uint32_t>(BlockPhis[FB].size());
        P.Result = static_cast<SSAValueID>(Defs.size());
        Defs.push_back(D);
        BlockPhis[FB].push_back(std::move(P));
        if (!IsDefBlock(FB))
          Work.push_back(FB);
      }
    }
    SiteIt = SiteEnd;
  }
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
      for (SSAPhi &P : BlockPhis[B])
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
        for (SSAPhi &P : BlockPhis[S]) {
          assert(Current[P.Sym] != InvalidSSAValue &&
                 "phi operand has no definition");
          P.Incoming[static_cast<size_t>(PI)] = Current[P.Sym];
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
