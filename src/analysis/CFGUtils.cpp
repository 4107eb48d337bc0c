#include "analysis/CFGUtils.h"

#include <algorithm>

using namespace nascent;

namespace {

void postOrderVisit(const Function &F, BlockID B, std::vector<bool> &Seen,
                    std::vector<BlockID> &Out) {
  // Iterative DFS to avoid deep recursion on long CFGs.
  struct Frame {
    BlockID B;
    SuccessorList Succs;
    size_t NextSucc = 0;
  };
  std::vector<Frame> Stack;
  Stack.reserve(F.numBlocks());
  Seen[B] = true;
  Stack.push_back({B, F.block(B)->successors(), 0});
  while (!Stack.empty()) {
    Frame &Top = Stack.back();
    if (Top.NextSucc < Top.Succs.size()) {
      BlockID S = Top.Succs[Top.NextSucc++];
      if (!Seen[S]) {
        Seen[S] = true;
        Stack.push_back({S, F.block(S)->successors(), 0});
      }
      continue;
    }
    Out.push_back(Top.B);
    Stack.pop_back();
  }
}

} // namespace

std::vector<BlockID> nascent::reversePostOrder(const Function &F) {
  std::vector<bool> Seen(F.numBlocks(), false);
  std::vector<BlockID> Post;
  Post.reserve(F.numBlocks());
  postOrderVisit(F, F.entryBlock(), Seen, Post);
  std::reverse(Post.begin(), Post.end());
  return Post;
}

BlockOrder::BlockOrder(const Function &F)
    : RPO(reversePostOrder(F)), Position(F.numBlocks(), Unreachable) {
  for (size_t I = 0, E = RPO.size(); I != E; ++I)
    Position[RPO[I]] = static_cast<uint32_t>(I);
}

std::vector<bool> nascent::reachableBlocks(const Function &F) {
  std::vector<bool> Seen(F.numBlocks(), false);
  std::vector<BlockID> Post;
  postOrderVisit(F, F.entryBlock(), Seen, Post);
  return Seen;
}
