#include "analysis/Dataflow.h"

#include "obs/StatRegistry.h"

#include <cassert>

using namespace nascent;

NASCENT_STAT(NumSolves, "dataflow.solves", "data-flow problems solved");
NASCENT_STAT(NumBlockVisits, "dataflow.block_visits",
             "work-list block recomputations across all solves");
NASCENT_STAT_HISTOGRAM(VisitsPerSolve, "dataflow.visits_per_solve",
                       "block recomputations to reach the fixpoint, per solve");

DataflowResult nascent::solveDataflow(const Function &F,
                                      const BlockOrder &Order,
                                      const DataflowProblem &P) {
  size_t NumBlocks = F.numBlocks();
  size_t N = P.UniverseSize;
  assert(P.Gen && P.Kill && P.Gen->numRows() == NumBlocks &&
         P.Kill->numRows() == NumBlocks &&
         "problem sets not sized to the CFG");
  assert(Order.Position.size() == NumBlocks && "order not of this CFG");
  const BitRows &Gen = *P.Gen, &Kill = *P.Kill;

  const bool Intersect = P.MeetOp == DataflowProblem::Meet::Intersect;
  const bool Forward = P.Dir == DataflowProblem::Direction::Forward;
  // An unsized boundary is the empty set.
  const bool HasBoundary = P.Boundary.size() == N;

  // Every value (including unreachable blocks, which the work list never
  // holds) starts at top so the first meet is exact and an unreachable
  // predecessor is the meet's identity element rather than poisoning the
  // In set of a reachable successor. Each side is one table.
  DataflowResult R;
  R.In = BitRows(NumBlocks, N, /*InitialValue=*/Intersect);
  R.Out = BitRows(NumBlocks, N, /*InitialValue=*/Intersect);

  // Visit reachable blocks in reverse post order along the problem
  // direction: with an acyclic CFG the first sweep is already the
  // fixpoint, and with loops only the blocks downstream of a change are
  // recomputed. Position K of the visiting order is RPO[K] forward and
  // RPO[Size - 1 - K] backward; unreachable blocks stay top and are never
  // enqueued.
  const size_t Size = Order.RPO.size();
  auto BlockAt = [&](size_t Pos) {
    return Order.RPO[Forward ? Pos : Size - 1 - Pos];
  };
  // The work list is a bit set over positions drained by a wraparound
  // cursor: blocks re-run in deterministic Order-relative order, and a
  // block enqueued many times before its turn is still recomputed once.
  DenseBitVector Pending(Size);
  Pending.setAll();
  size_t NumPending = Size;
  auto Enqueue = [&](BlockID B) {
    uint32_t RP = Order.Position[B];
    if (RP == BlockOrder::Unreachable)
      return;
    size_t Pos = Forward ? RP : Size - 1 - RP;
    if (!Pending.test(Pos)) {
      Pending.set(Pos);
      ++NumPending;
    }
  };

  // One scratch pair reused for every recomputation; row copies into it
  // reuse its storage, so the solve loop allocates nothing.
  DenseBitVector NewIn(N);
  DenseBitVector NewOut(N);

  uint64_t Visits = 0;
  size_t Cursor = 0;
  while (NumPending != 0) {
    size_t Pos = Pending.findNext(Cursor);
    if (Pos == DenseBitVector::npos) {
      Cursor = 0;
      continue;
    }
    Pending.reset(Pos);
    --NumPending;
    Cursor = Pos + 1;

    BlockID B = BlockAt(Pos);
    const BasicBlock *BB = F.block(B);
    ++Visits;

    if (Forward) {
      // In[B] = meet over preds' Out (boundary at the entry block).
      if (B == F.entryBlock()) {
        if (HasBoundary)
          NewIn = ConstBitRow(P.Boundary);
        else
          NewIn.resetAll();
      } else {
        bool First = true;
        for (BlockID Pred : BB->preds()) {
          if (First) {
            NewIn = R.Out[Pred];
            First = false;
          } else if (Intersect) {
            NewIn &= R.Out[Pred];
          } else {
            NewIn |= R.Out[Pred];
          }
        }
        if (First) {
          if (Intersect)
            NewIn.setAll();
          else
            NewIn.resetAll();
        }
      }
      NewOut = NewIn;
      NewOut.andNot(Kill[B]);
      NewOut |= Gen[B];
      if (NewIn != R.In[B] || NewOut != R.Out[B]) {
        R.In[B].assign(NewIn);
        R.Out[B].assign(NewOut);
        for (BlockID S : BB->successors())
          Enqueue(S);
      }
    } else {
      // Out[B] = meet over succs' In (boundary at exit blocks).
      SuccessorList Succs = BB->successors();
      if (Succs.empty()) {
        if (HasBoundary)
          NewOut = ConstBitRow(P.Boundary);
        else
          NewOut.resetAll();
      } else {
        bool First = true;
        for (BlockID S : Succs) {
          if (First) {
            NewOut = R.In[S];
            First = false;
          } else if (Intersect) {
            NewOut &= R.In[S];
          } else {
            NewOut |= R.In[S];
          }
        }
      }
      NewIn = NewOut;
      NewIn.andNot(Kill[B]);
      NewIn |= Gen[B];
      if (NewIn != R.In[B] || NewOut != R.Out[B]) {
        R.In[B].assign(NewIn);
        R.Out[B].assign(NewOut);
        for (BlockID Pred : BB->preds())
          Enqueue(Pred);
      }
    }
  }

  ++NumSolves;
  NumBlockVisits += Visits;
  VisitsPerSolve.record(Visits);
  R.Visits = Visits;
  return R;
}

void nascent::creditDataflowSolve(uint64_t Visits) {
  ++NumSolves;
  NumBlockVisits += Visits;
  VisitsPerSolve.record(Visits);
}
