#include "analysis/Dataflow.h"

#include "analysis/CFGUtils.h"
#include "obs/StatRegistry.h"

#include <algorithm>
#include <cassert>

using namespace nascent;

NASCENT_STAT(NumSolves, "dataflow.solves", "data-flow problems solved");
NASCENT_STAT(NumBlockVisits, "dataflow.block_visits",
             "work-list block recomputations across all solves");
NASCENT_STAT_HISTOGRAM(VisitsPerSolve, "dataflow.visits_per_solve",
                       "block recomputations to reach the fixpoint, per solve");

DataflowResult nascent::solveDataflow(const Function &F,
                                      const DataflowProblem &P) {
  size_t NumBlocks = F.numBlocks();
  size_t N = P.UniverseSize;
  assert(P.Gen.size() == NumBlocks && P.Kill.size() == NumBlocks &&
         "problem sets not sized to the CFG");

  const bool Intersect = P.MeetOp == DataflowProblem::Meet::Intersect;
  const bool Forward = P.Dir == DataflowProblem::Direction::Forward;
  DenseBitVector Top(N, /*InitialValue=*/Intersect);
  DenseBitVector Bottom(N);

  DenseBitVector Boundary = P.Boundary;
  if (Boundary.size() != N)
    Boundary = DenseBitVector(N);

  // Every value (including unreachable blocks, which the work list never
  // holds) starts at top so the first meet is exact and an unreachable
  // predecessor is the meet's identity element rather than poisoning the
  // In set of a reachable successor. assign() makes exactly one copy per
  // block side.
  DataflowResult R;
  R.In.assign(NumBlocks, Top);
  R.Out.assign(NumBlocks, Top);

  // Visit reachable blocks in reverse post order along the problem
  // direction: with an acyclic CFG the first sweep is already the
  // fixpoint, and with loops only the blocks downstream of a change are
  // recomputed (the round-robin solver this replaces re-scanned the whole
  // CFG per pass).
  std::vector<BlockID> Order = reversePostOrder(F);
  if (!Forward)
    std::reverse(Order.begin(), Order.end());

  // Block -> position in Order; npos marks unreachable blocks, which stay
  // top and are never enqueued.
  constexpr size_t NoPos = static_cast<size_t>(-1);
  std::vector<size_t> PosOf(NumBlocks, NoPos);
  for (size_t I = 0, E = Order.size(); I != E; ++I)
    PosOf[Order[I]] = I;

  // The work list is a bit set over positions drained by a wraparound
  // cursor: blocks re-run in deterministic Order-relative order, and a
  // block enqueued many times before its turn is still recomputed once.
  DenseBitVector Pending(Order.size());
  Pending.setAll();
  size_t NumPending = Order.size();

  // One scratch pair reused for every recomputation; the copy assignments
  // below reuse its capacity, so the solve loop allocates nothing.
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

    BlockID B = Order[Pos];
    const BasicBlock *BB = F.block(B);
    ++Visits;

    if (Forward) {
      // In[B] = meet over preds' Out (boundary at the entry block).
      if (B == F.entryBlock()) {
        NewIn = Boundary;
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
        if (First)
          NewIn = Intersect ? Top : Bottom;
      }
      NewOut = NewIn;
      NewOut.andNot(P.Kill[B]);
      NewOut |= P.Gen[B];
      if (NewIn != R.In[B] || NewOut != R.Out[B]) {
        std::swap(R.In[B], NewIn);
        std::swap(R.Out[B], NewOut);
        for (BlockID S : BB->successors()) {
          size_t SP = PosOf[S];
          if (SP != NoPos && !Pending.test(SP)) {
            Pending.set(SP);
            ++NumPending;
          }
        }
      }
    } else {
      // Out[B] = meet over succs' In (boundary at exit blocks).
      SuccessorList Succs = BB->successors();
      if (Succs.empty()) {
        NewOut = Boundary;
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
      NewIn.andNot(P.Kill[B]);
      NewIn |= P.Gen[B];
      if (NewIn != R.In[B] || NewOut != R.Out[B]) {
        std::swap(R.In[B], NewIn);
        std::swap(R.Out[B], NewOut);
        for (BlockID Pred : BB->preds()) {
          size_t PP = PosOf[Pred];
          if (PP != NoPos && !Pending.test(PP)) {
            Pending.set(PP);
            ++NumPending;
          }
        }
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
