#include "analysis/Dominators.h"

#include "analysis/CFGUtils.h"
#include "ir/IRBuilder.h"

#include <gtest/gtest.h>

using namespace nascent;

namespace {

std::vector<BlockID> listOf(std::span<const BlockID> Row) {
  return {Row.begin(), Row.end()};
}

/// Builds the classic diamond: entry -> {then, else} -> join -> exit(ret).
struct Diamond {
  Function F{"f"};
  BlockID Entry, Then, Else, Join;

  Diamond() {
    IRBuilder B(F);
    SymbolID C = F.symbols().createScalar("c", ScalarType::Bool);
    BasicBlock *E = B.createBlock("entry");
    BasicBlock *T = B.createBlock("then");
    BasicBlock *El = B.createBlock("else");
    BasicBlock *J = B.createBlock("join");
    Entry = E->id();
    Then = T->id();
    Else = El->id();
    Join = J->id();
    B.setInsertBlock(E);
    B.emitBr(Value::sym(C), Then, Else);
    B.setInsertBlock(T);
    B.emitJump(Join);
    B.setInsertBlock(El);
    B.emitJump(Join);
    B.setInsertBlock(J);
    B.emitRet();
    F.recomputePreds();
  }
};

TEST(Dominators, DiamondIdoms) {
  Diamond D;
  DominatorTree DT(D.F);
  EXPECT_EQ(DT.idom(D.Entry), InvalidBlock);
  EXPECT_EQ(DT.idom(D.Then), D.Entry);
  EXPECT_EQ(DT.idom(D.Else), D.Entry);
  EXPECT_EQ(DT.idom(D.Join), D.Entry);

  EXPECT_TRUE(DT.dominates(D.Entry, D.Join));
  EXPECT_TRUE(DT.dominates(D.Join, D.Join));
  EXPECT_FALSE(DT.dominates(D.Then, D.Join));
  EXPECT_FALSE(DT.dominates(D.Join, D.Then));
}

TEST(Dominators, DiamondFrontiers) {
  Diamond D;
  DominatorTree DT(D.F);
  // Both branch blocks have the join in their frontier; the entry has
  // nothing (it dominates everything).
  EXPECT_EQ(listOf(DT.frontier(D.Then)), std::vector<BlockID>{D.Join});
  EXPECT_EQ(listOf(DT.frontier(D.Else)), std::vector<BlockID>{D.Join});
  EXPECT_TRUE(DT.frontier(D.Entry).empty());
}

TEST(Dominators, LoopFrontierContainsHeader) {
  // entry -> header; header -> {body, exit}; body -> header.
  Function F("f");
  IRBuilder B(F);
  SymbolID C = F.symbols().createScalar("c", ScalarType::Bool);
  BasicBlock *Entry = B.createBlock("entry");
  BasicBlock *Header = B.createBlock("header");
  BasicBlock *Body = B.createBlock("body");
  BasicBlock *Exit = B.createBlock("exit");
  B.setInsertBlock(Entry);
  B.emitJump(Header->id());
  B.setInsertBlock(Header);
  B.emitBr(Value::sym(C), Body->id(), Exit->id());
  B.setInsertBlock(Body);
  B.emitJump(Header->id());
  B.setInsertBlock(Exit);
  B.emitRet();
  F.recomputePreds();

  DominatorTree DT(F);
  EXPECT_EQ(DT.idom(Header->id()), Entry->id());
  EXPECT_EQ(DT.idom(Body->id()), Header->id());
  EXPECT_EQ(DT.idom(Exit->id()), Header->id());
  // The body's frontier is the header (back edge target), and the header
  // is in its own frontier through the loop.
  EXPECT_EQ(listOf(DT.frontier(Body->id())),
            std::vector<BlockID>{Header->id()});
  EXPECT_EQ(listOf(DT.frontier(Header->id())),
            std::vector<BlockID>{Header->id()});
  EXPECT_EQ(listOf(DT.children(Entry->id())),
            std::vector<BlockID>{Header->id()});
  // Children come in reverse post-order: the DFS finishes the body first.
  EXPECT_EQ(listOf(DT.children(Header->id())),
            (std::vector<BlockID>{Exit->id(), Body->id()}));
  EXPECT_TRUE(DT.children(Body->id()).empty());
}

TEST(Dominators, UnreachableBlocks) {
  Function F("f");
  IRBuilder B(F);
  BasicBlock *Entry = B.createBlock("entry");
  BasicBlock *Dead = B.createBlock("dead");
  B.setInsertBlock(Entry);
  B.emitRet();
  B.setInsertBlock(Dead);
  B.emitRet();
  F.recomputePreds();

  DominatorTree DT(F);
  EXPECT_TRUE(DT.isReachable(Entry->id()));
  EXPECT_FALSE(DT.isReachable(Dead->id()));
  EXPECT_FALSE(DT.dominates(Entry->id(), Dead->id()));
  EXPECT_EQ(reversePostOrder(F).size(), 1u);
}

TEST(CFGUtils, RPOStartsAtEntryAndRespectsOrder) {
  Diamond D;
  std::vector<BlockID> RPO = reversePostOrder(D.F);
  ASSERT_EQ(RPO.size(), 4u);
  EXPECT_EQ(RPO.front(), D.Entry);
  EXPECT_EQ(RPO.back(), D.Join);
}

} // namespace
