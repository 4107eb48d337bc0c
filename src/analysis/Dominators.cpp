#include "analysis/Dominators.h"

#include "analysis/CFGUtils.h"

#include <algorithm>

using namespace nascent;

DominatorTree::DominatorTree(const Function &F) {
  size_t N = F.numBlocks();
  IDom.assign(N, InvalidBlock);
  RPONumber.assign(N, -1);

  RPO = reversePostOrder(F);
  for (size_t I = 0; I != RPO.size(); ++I)
    RPONumber[RPO[I]] = static_cast<int>(I);

  BlockID Entry = F.entryBlock();
  IDom[Entry] = Entry;

  // Cooper-Harvey-Kennedy: iterate until the idom assignment stabilises.
  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (BlockID B : RPO) {
      if (B == Entry)
        continue;
      BlockID NewIDom = InvalidBlock;
      for (BlockID P : F.block(B)->preds()) {
        if (RPONumber[P] < 0 || IDom[P] == InvalidBlock)
          continue; // unreachable or unprocessed predecessor
        NewIDom = (NewIDom == InvalidBlock) ? P : intersect(P, NewIDom);
      }
      if (NewIDom != InvalidBlock && IDom[B] != NewIDom) {
        IDom[B] = NewIDom;
        Changed = true;
      }
    }
  }

  // The entry's idom is conventionally itself during the fixpoint; expose
  // it as "none" and build the child lists.
  std::vector<std::pair<BlockID, BlockID>> Edges;
  Edges.reserve(RPO.size());
  for (BlockID B : RPO) {
    if (B == Entry)
      continue;
    if (IDom[B] != InvalidBlock)
      Edges.push_back({IDom[B], B});
  }
  Children.assign(N, Edges);
  IDom[Entry] = InvalidBlock;

  computeFrontiers(F);
}

BlockID DominatorTree::intersect(BlockID A, BlockID B) const {
  while (A != B) {
    while (RPONumber[A] > RPONumber[B])
      A = IDom[A];
    while (RPONumber[B] > RPONumber[A])
      B = IDom[B];
  }
  return A;
}

bool DominatorTree::dominates(BlockID A, BlockID B) const {
  if (!isReachable(A) || !isReachable(B))
    return false;
  // Walk up from B; dominator chains are short in structured CFGs.
  BlockID Cur = B;
  while (true) {
    if (Cur == A)
      return true;
    BlockID Up = IDom[Cur];
    if (Up == InvalidBlock)
      return false;
    Cur = Up;
  }
}

void DominatorTree::BlockRows::assign(
    size_t NumRows, const std::vector<std::pair<BlockID, BlockID>> &Pairs) {
  Begin.assign(NumRows + 1, 0);
  for (const auto &[Row, Item] : Pairs)
    ++Begin[Row + 1];
  for (size_t R = 0; R != NumRows; ++R)
    Begin[R + 1] += Begin[R];
  Items.resize(Pairs.size());
  // Place each item at its row's fill cursor (borrowing Begin[R] and
  // restoring it below), so a row keeps its items in appearance order.
  for (const auto &[Row, Item] : Pairs)
    Items[Begin[Row]++] = Item;
  for (size_t R = NumRows; R-- > 0;)
    Begin[R + 1] = Begin[R];
  Begin[0] = 0;
}

void DominatorTree::computeFrontiers(const Function &F) {
  // Cytron et al. frontier computation via the "two or more preds" rule.
  // Every insertion of B into a frontier happens while B is the current
  // join block, so LastJoin[Runner] == B detects a repeat.
  std::vector<std::pair<BlockID, BlockID>> Entries;
  std::vector<BlockID> LastJoin(IDom.size(), InvalidBlock);
  for (BlockID B : RPO) {
    const PredList &Preds = F.block(B)->preds();
    if (Preds.size() < 2)
      continue;
    for (BlockID P : Preds) {
      if (!isReachable(P))
        continue;
      BlockID Runner = P;
      while (Runner != InvalidBlock && Runner != IDom[B]) {
        if (LastJoin[Runner] != B) {
          LastJoin[Runner] = B;
          Entries.push_back({Runner, B});
        }
        Runner = IDom[Runner];
      }
    }
  }
  Frontier.assign(IDom.size(), Entries);
}
