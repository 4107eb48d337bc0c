#include "analysis/Dataflow.h"

#include "analysis/CFGUtils.h"
#include "ir/IRBuilder.h"

#include <gtest/gtest.h>

#include <random>

using namespace nascent;

namespace {

/// A straight-line chain entry -> b1 -> b2 (ret).
struct Chain {
  Function F{"f"};
  BlockID B0, B1, B2;
  Chain() {
    IRBuilder B(F);
    BasicBlock *A = B.createBlock("b0");
    BasicBlock *C = B.createBlock("b1");
    BasicBlock *D = B.createBlock("b2");
    B0 = A->id();
    B1 = C->id();
    B2 = D->id();
    B.setInsertBlock(A);
    B.emitJump(B1);
    B.setInsertBlock(C);
    B.emitJump(B2);
    B.setInsertBlock(D);
    B.emitRet();
    F.recomputePreds();
  }
};

DenseBitVector bits(size_t N, std::initializer_list<size_t> Set) {
  DenseBitVector V(N);
  for (size_t B : Set)
    V.set(B);
  return V;
}

/// A table of width \p N with one row per set of \p Sets.
BitRows rows(size_t N,
             std::initializer_list<std::initializer_list<size_t>> Sets) {
  BitRows T(Sets.size(), N);
  size_t R = 0;
  for (std::initializer_list<size_t> Set : Sets) {
    for (size_t B : Set)
      T[R].set(B);
    ++R;
  }
  return T;
}

TEST(Dataflow, ForwardGenKillPropagation) {
  Chain C;
  DataflowProblem P;
  P.Dir = DataflowProblem::Direction::Forward;
  P.MeetOp = DataflowProblem::Meet::Intersect;
  P.UniverseSize = 4;
  BitRows Gen = rows(4, {{0}, {1}, {}});
  BitRows Kill = rows(4, {{}, {0}, {}});
  P.Gen = &Gen;
  P.Kill = &Kill;

  DataflowResult R = solveDataflow(C.F, BlockOrder(C.F), P);
  EXPECT_EQ(R.Out[C.B0], bits(4, {0}));
  // b1 kills 0 and gens 1.
  EXPECT_EQ(R.In[C.B1], bits(4, {0}));
  EXPECT_EQ(R.Out[C.B1], bits(4, {1}));
  EXPECT_EQ(R.In[C.B2], bits(4, {1}));
}

TEST(Dataflow, IntersectAtMerge) {
  // Diamond where only one branch generates fact 0; intersect drops it.
  Function F("f");
  IRBuilder B(F);
  SymbolID Cond = F.symbols().createScalar("c", ScalarType::Bool);
  BasicBlock *E = B.createBlock("e");
  BasicBlock *T = B.createBlock("t");
  BasicBlock *El = B.createBlock("el");
  BasicBlock *J = B.createBlock("j");
  B.setInsertBlock(E);
  B.emitBr(Value::sym(Cond), T->id(), El->id());
  B.setInsertBlock(T);
  B.emitJump(J->id());
  B.setInsertBlock(El);
  B.emitJump(J->id());
  B.setInsertBlock(J);
  B.emitRet();
  F.recomputePreds();

  DataflowProblem P;
  P.UniverseSize = 2;
  BitRows Gen = rows(2, {{1}, {0}, {}, {}});
  BitRows Kill(4, 2);
  P.Gen = &Gen;
  P.Kill = &Kill;

  DataflowResult RI = solveDataflow(F, BlockOrder(F), P);
  EXPECT_EQ(RI.In[J->id()], bits(2, {1})); // fact 0 only on the then path

  P.MeetOp = DataflowProblem::Meet::Union;
  DataflowResult RU = solveDataflow(F, BlockOrder(F), P);
  EXPECT_EQ(RU.In[J->id()], bits(2, {0, 1}));
}

TEST(Dataflow, LoopReachesFixpoint) {
  // entry -> header <-> body; header -> exit. A fact genned in the body
  // is available at the header only via the back edge, so intersect with
  // the entry path must drop it; a fact genned before the loop survives.
  Function F("f");
  IRBuilder B(F);
  SymbolID Cond = F.symbols().createScalar("c", ScalarType::Bool);
  BasicBlock *E = B.createBlock("e");
  BasicBlock *H = B.createBlock("h");
  BasicBlock *Body = B.createBlock("body");
  BasicBlock *X = B.createBlock("x");
  B.setInsertBlock(E);
  B.emitJump(H->id());
  B.setInsertBlock(H);
  B.emitBr(Value::sym(Cond), Body->id(), X->id());
  B.setInsertBlock(Body);
  B.emitJump(H->id());
  B.setInsertBlock(X);
  B.emitRet();
  F.recomputePreds();

  DataflowProblem P;
  P.UniverseSize = 2;
  BitRows Gen(4, 2);
  BitRows Kill(4, 2);
  Gen[E->id()].set(0);
  Gen[Body->id()].set(1);
  P.Gen = &Gen;
  P.Kill = &Kill;

  DataflowResult R = solveDataflow(F, BlockOrder(F), P);
  EXPECT_TRUE(R.In[H->id()].test(0));
  EXPECT_FALSE(R.In[H->id()].test(1));
  EXPECT_TRUE(R.In[X->id()].test(0));
  EXPECT_FALSE(R.In[X->id()].test(1));
}

TEST(Dataflow, BackwardAnticipation) {
  // Chain b0 -> b1 -> b2; fact 0 genned in b2, killed in b1: it is
  // anticipatable at b1's entry only if genned below the kill -- here the
  // kill stops it from reaching b0.
  Chain C;
  DataflowProblem P;
  P.Dir = DataflowProblem::Direction::Backward;
  P.UniverseSize = 2;
  BitRows Gen = rows(2, {{}, {}, {0, 1}});
  BitRows Kill = rows(2, {{}, {0}, {}});
  P.Gen = &Gen;
  P.Kill = &Kill;

  DataflowResult R = solveDataflow(C.F, BlockOrder(C.F), P);
  EXPECT_TRUE(R.In[C.B2].test(0));
  EXPECT_TRUE(R.Out[C.B1].test(0));
  EXPECT_FALSE(R.In[C.B1].test(0)); // killed in b1
  EXPECT_TRUE(R.In[C.B1].test(1));  // transparent for fact 1
  EXPECT_TRUE(R.In[C.B0].test(1));
  EXPECT_FALSE(R.In[C.B0].test(0));
}

TEST(Dataflow, BackwardBoundaryAtExits) {
  // Nothing is anticipatable after a return: the boundary set is empty.
  Chain C;
  DataflowProblem P;
  P.Dir = DataflowProblem::Direction::Backward;
  P.UniverseSize = 1;
  BitRows Sets(3, 1);
  P.Gen = &Sets;
  P.Kill = &Sets;
  DataflowResult R = solveDataflow(C.F, BlockOrder(C.F), P);
  EXPECT_FALSE(R.Out[C.B2].test(0));
  EXPECT_FALSE(R.In[C.B0].test(0));
}

/// A random CFG: Size blocks, block 0 the entry; the last two blocks are
/// never branched to, so they are unreachable (and may branch into the
/// reachable part); jumps may target their own block; blocks end in a
/// return, a jump or a two-way branch, with at least two returns.
/// std::mt19937's sequence is fixed by the standard, and only its raw
/// output is used, so a seed names the same CFG everywhere.
struct RandomCfg {
  Function F{"rand"};

  explicit RandomCfg(std::mt19937 &Rng) {
    IRBuilder B(F);
    SymbolID Cond = F.symbols().createScalar("c", ScalarType::Bool);
    size_t Size = 12 + Rng() % 36;
    std::vector<BlockID> Ids;
    for (size_t K = 0; K != Size; ++K)
      Ids.push_back(B.createBlock("b")->id());
    auto Target = [&] { return Ids[1 + Rng() % (Size - 3)]; };
    for (size_t K = 0; K != Size; ++K) {
      B.setInsertBlock(F.block(Ids[K]));
      unsigned Kind = Rng() % 10;
      if (K == 1 || K == Size - 3 || Kind == 0) {
        B.emitRet();
      } else if (Kind < 4) {
        B.emitJump(Kind == 1 ? Ids[K] : Target());
      } else {
        BlockID T = Target(), E = Target();
        if (T == E)
          B.emitJump(T);
        else
          B.emitBr(Value::sym(Cond), T, E);
      }
    }
    F.recomputePreds();
  }
};

/// Per-block random sets of \p N bits, each bit set with probability
/// 1 / \p OneIn.
std::vector<std::vector<bool>> randomSets(std::mt19937 &Rng, size_t Blocks,
                                          size_t N, unsigned OneIn) {
  std::vector<std::vector<bool>> Sets(Blocks, std::vector<bool>(N));
  for (std::vector<bool> &S : Sets)
    for (size_t I = 0; I != N; ++I)
      S[I] = Rng() % OneIn == 0;
  return Sets;
}

/// Plain round-robin over std::vector<bool>: every reachable block is
/// recomputed until nothing changes; unreachable blocks keep top.
struct Reference {
  std::vector<std::vector<bool>> In, Out;

  Reference(const Function &F, const DataflowProblem &P,
            const std::vector<std::vector<bool>> &Gen,
            const std::vector<std::vector<bool>> &Kill,
            const std::vector<bool> &Boundary) {
    size_t N = P.UniverseSize;
    bool Intersect = P.MeetOp == DataflowProblem::Meet::Intersect;
    bool Forward = P.Dir == DataflowProblem::Direction::Forward;
    In.assign(F.numBlocks(), std::vector<bool>(N, Intersect));
    Out = In;
    std::vector<bool> Reachable = reachableBlocks(F);
    auto Meet = [&](std::vector<bool> &Acc, const std::vector<bool> &V) {
      for (size_t I = 0; I != N; ++I)
        Acc[I] = Intersect ? Acc[I] && V[I] : Acc[I] || V[I];
    };
    for (bool Changed = true; Changed;) {
      Changed = false;
      for (BlockID B = 0; B != F.numBlocks(); ++B) {
        if (!Reachable[B])
          continue;
        const BasicBlock *BB = F.block(B);
        std::vector<bool> Side(N, Intersect), Other(N);
        if (Forward ? B == F.entryBlock() : BB->successors().empty())
          Side = Boundary;
        else if (Forward)
          for (BlockID Pred : BB->preds())
            Meet(Side, Out[Pred]);
        else
          for (BlockID S : BB->successors())
            Meet(Side, In[S]);
        for (size_t I = 0; I != N; ++I)
          Other[I] = Gen[B][I] || (Side[I] && !Kill[B][I]);
        std::vector<bool> &NewIn = Forward ? Side : Other;
        std::vector<bool> &NewOut = Forward ? Other : Side;
        if (NewIn != In[B] || NewOut != Out[B]) {
          In[B] = NewIn;
          Out[B] = NewOut;
          Changed = true;
        }
      }
    }
  }
};

BitRows toRows(const std::vector<std::vector<bool>> &Sets, size_t N) {
  BitRows T(Sets.size(), N);
  for (size_t R = 0; R != Sets.size(); ++R)
    for (size_t I = 0; I != N; ++I)
      if (Sets[R][I])
        T[R].set(I);
  return T;
}

TEST(Dataflow, RandomCfgsMatchRoundRobinAcrossWordBoundaries) {
  // Universes on both sides of every word boundary, both directions and
  // both meets, against the reference. The visit counts are pinned to
  // the solver these row tables replaced (per seed: per universe size,
  // forward/backward x intersect/union), so the work-list order is kept.
  const size_t Sizes[] = {1, 63, 64, 65, 128, 129, 300};
  const unsigned Seeds[] = {1, 4, 5, 6, 7, 8, 9};
  const uint64_t ExpectedVisits[7][7][4] = {
      {{9, 9, 8, 12}, {10, 10, 12, 12}, {10, 10, 12, 12}, {10, 10, 12, 12},
       {10, 10, 12, 12}, {10, 10, 12, 12}, {10, 10, 12, 12}},
      {{19, 18, 20, 23}, {31, 40, 31, 32}, {28, 33, 30, 32}, {37, 31, 31, 32},
       {40, 35, 27, 32}, {35, 40, 27, 32}, {36, 39, 32, 32}},
      {{32, 25, 26, 25}, {53, 50, 43, 48}, {53, 52, 40, 41}, {51, 53, 42, 39},
       {53, 53, 54, 44}, {53, 52, 45, 49}, {53, 53, 53, 45}},
      {{2, 1, 1, 1}, {2, 2, 3, 3}, {2, 2, 3, 3}, {2, 2, 3, 3}, {2, 2, 3, 3},
       {2, 2, 3, 3}, {2, 2, 3, 3}},
      {{16, 13, 18, 16}, {25, 25, 23, 21}, {25, 23, 23, 23}, {25, 25, 19, 23},
       {25, 25, 21, 21}, {25, 25, 23, 23}, {25, 25, 23, 23}},
      {{25, 21, 23, 24}, {39, 39, 33, 36}, {37, 38, 34, 33}, {41, 37, 31, 33},
       {51, 42, 38, 35}, {45, 50, 34, 36}, {46, 44, 40, 38}},
      {{15, 14, 14, 16}, {24, 24, 23, 23}, {24, 20, 23, 23}, {24, 24, 24, 23},
       {22, 22, 24, 24}, {24, 24, 23, 23}, {24, 24, 24, 24}}};
  for (size_t SI = 0; SI != std::size(Seeds); ++SI) {
    std::mt19937 Rng(Seeds[SI]);
    RandomCfg G(Rng);
    BlockOrder Order(G.F);
    size_t NB = G.F.numBlocks();
    for (size_t NI = 0; NI != std::size(Sizes); ++NI) {
      size_t N = Sizes[NI];
      std::vector<std::vector<bool>> Gen = randomSets(Rng, NB, N, 4),
                                     Kill = randomSets(Rng, NB, N, 4);
      std::vector<bool> Boundary = randomSets(Rng, 1, N, 2)[0];
      BitRows GenRows = toRows(Gen, N), KillRows = toRows(Kill, N);
      for (int K = 0; K != 4; ++K) {
        SCOPED_TRACE(testing::Message() << "seed " << Seeds[SI] << " bits "
                                        << N << " problem " << K);
        DataflowProblem P;
        P.Dir = K / 2 ? DataflowProblem::Direction::Backward
                      : DataflowProblem::Direction::Forward;
        P.MeetOp = K % 2 ? DataflowProblem::Meet::Union
                         : DataflowProblem::Meet::Intersect;
        P.UniverseSize = N;
        P.Gen = &GenRows;
        P.Kill = &KillRows;
        // Odd seeds solve with a random boundary, even ones with the
        // default (empty) one.
        if (Seeds[SI] % 2)
          P.Boundary = DenseBitVector(toRows({Boundary}, N)[0]);
        else
          Boundary.assign(N, false);
        DataflowResult R = solveDataflow(G.F, Order, P);
        Reference Ref(G.F, P, Gen, Kill, Boundary);
        EXPECT_EQ(R.Visits, ExpectedVisits[SI][NI][K]);
        for (BlockID B = 0; B != NB; ++B)
          for (size_t I = 0; I != N; ++I) {
            ASSERT_EQ(R.In[B].test(I), Ref.In[B][I]) << "In block " << B;
            ASSERT_EQ(R.Out[B].test(I), Ref.Out[B][I]) << "Out block " << B;
          }
      }
    }
  }
}

} // namespace
