#include "analysis/LoopInfo.h"

#include <algorithm>

using namespace nascent;

LoopInfo::LoopInfo(const Function &F, const DominatorTree &DT) {
  BlockLoop.assign(F.numBlocks(), nullptr);

  // Collect back edges (P -> H where H dominates P), grouped by header in
  // ascending order, each header's latches in RPO.
  std::vector<std::pair<BlockID, BlockID>> BackEdges; // (header, latch)
  for (BlockID B : DT.rpo()) {
    for (BlockID S : F.block(B)->successors())
      if (DT.dominates(S, B))
        BackEdges.push_back({S, B});
  }
  std::stable_sort(
      BackEdges.begin(), BackEdges.end(),
      [](const auto &A, const auto &B) { return A.first < B.first; });

  // The forest construction below orders loops by member counts, so
  // creation order only needs determinism.
  std::vector<BlockID> Latches;
  for (size_t K = 0; K != BackEdges.size();) {
    BlockID Header = BackEdges[K].first;
    Latches.clear();
    for (; K != BackEdges.size() && BackEdges[K].first == Header; ++K)
      Latches.push_back(BackEdges[K].second);
    discoverLoop(F, DT, Header, Latches);
  }

  buildForest();
  findPreheaders(F);
  attachDoLoopMetadata(F);
}

void LoopInfo::discoverLoop(const Function &F, const DominatorTree &DT,
                            BlockID Header,
                            const std::vector<BlockID> &Latches) {
  auto L = std::make_unique<Loop>();
  L->Header = Header;
  L->Latches = Latches;
  L->Index = static_cast<unsigned>(Loops.size());
  // Standard natural-loop membership: backward walk from each latch until
  // the header.
  DenseBitVector &InLoop = L->BlockSet;
  InLoop.resize(F.numBlocks());
  InLoop.set(Header);
  L->Blocks.push_back(Header);
  std::vector<BlockID> Work;
  for (BlockID Latch : Latches)
    if (!InLoop.test(Latch)) {
      InLoop.set(Latch);
      L->Blocks.push_back(Latch);
      Work.push_back(Latch);
    }
  while (!Work.empty()) {
    BlockID B = Work.back();
    Work.pop_back();
    for (BlockID P : F.block(B)->preds()) {
      if (!DT.isReachable(P) || InLoop.test(P))
        continue;
      InLoop.set(P);
      L->Blocks.push_back(P);
      Work.push_back(P);
    }
  }
  Loops.push_back(std::move(L));
}

void LoopInfo::buildForest() {
  // Sort by member count ascending: a loop nested in another has strictly
  // fewer blocks, so processing small-to-large assigns the innermost loop
  // to each block first, and each loop's parent is the next loop claiming
  // its header.
  std::vector<Loop *> BySize;
  BySize.reserve(Loops.size());
  for (auto &L : Loops)
    BySize.push_back(L.get());
  std::sort(BySize.begin(), BySize.end(), [](const Loop *A, const Loop *B) {
    if (A->Blocks.size() != B->Blocks.size())
      return A->Blocks.size() < B->Blocks.size();
    return A->Header < B->Header;
  });

  for (Loop *L : BySize) {
    for (BlockID B : L->Blocks) {
      if (BlockLoop[B] == nullptr) {
        BlockLoop[B] = L;
        continue;
      }
      // Innermost loop of B is already set; establish parenting for the
      // outermost ancestor without a parent yet.
      Loop *Inner = BlockLoop[B];
      while (Inner->Parent != nullptr && Inner->Parent != L)
        Inner = Inner->Parent;
      if (Inner != L && Inner->Parent == nullptr) {
        Inner->Parent = L;
        L->SubLoops.push_back(Inner);
      }
    }
  }

  for (Loop *L : BySize) {
    if (L->Parent == nullptr)
      TopLevel.push_back(L);
  }
  // Depths: walk down from the top level.
  std::vector<Loop *> Work = TopLevel;
  while (!Work.empty()) {
    Loop *L = Work.back();
    Work.pop_back();
    L->Depth = L->Parent ? L->Parent->Depth + 1 : 1;
    for (Loop *S : L->SubLoops)
      Work.push_back(S);
  }
  // Innermost-first order = the size-ascending order computed above.
  InnerFirst = BySize;
}

void LoopInfo::findPreheaders(const Function &F) {
  for (auto &L : Loops) {
    BlockID Candidate = InvalidBlock;
    bool Multiple = false;
    for (BlockID P : F.block(L->Header)->preds()) {
      if (L->contains(P))
        continue;
      if (Candidate != InvalidBlock)
        Multiple = true;
      Candidate = P;
    }
    if (Multiple || Candidate == InvalidBlock)
      continue;
    // A preheader must fall through solely to the header so an inserted
    // check executes iff the loop is entered.
    if (F.block(Candidate)->successors() == SuccessorList(L->Header))
      L->Preheader = Candidate;
  }
}

void LoopInfo::attachDoLoopMetadata(const Function &F) {
  for (size_t I = 0; I != F.doLoops().size(); ++I) {
    BlockID Header = F.doLoops()[I].Header;
    for (auto &L : Loops)
      if (L->Header == Header)
        L->DoLoopIndex = static_cast<int>(I);
  }
}
