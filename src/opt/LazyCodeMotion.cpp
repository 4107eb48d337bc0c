#include "opt/LazyCodeMotion.h"

#include "analysis/CFGUtils.h"

#include <algorithm>

using namespace nascent;

namespace {

/// A physical insertion point owned by one CFG edge (critical edges are
/// split, so each edge exclusively owns one of its endpoints).
struct InsertPoint {
  BlockID Block = InvalidBlock;
  bool AtStart = false; ///< start of Block vs. before its terminator
};

InsertPoint pointForEdge(const Function &F, BlockID From, BlockID To) {
  if (F.block(From)->successors().size() == 1)
    return {From, /*AtStart=*/false};
  assert(F.block(To)->preds().size() == 1 &&
         "critical edge not split before LCM");
  return {To, /*AtStart=*/true};
}

} // namespace

void nascent::runLazyCodeMotion(Function &F, const CheckContext &Ctx,
                                LCMPlacement Placement,
                                obs::ProvenanceRecorder &PR) {
  const CheckUniverse &U = Ctx.universe();
  size_t N = U.size();
  if (N == 0)
    return;

  DataflowResult Avail = Ctx.solveAvailability();
  DataflowResult Antic = Ctx.solveAnticipatability();

  std::vector<bool> Reachable = reachableBlocks(F);

  // Enumerate edges between reachable blocks.
  struct Edge {
    BlockID From;
    BlockID To;
    DenseBitVector Earliest;
  };
  std::vector<Edge> Edges;
  for (const auto &BB : F) {
    if (!Reachable[BB->id()])
      continue;
    for (BlockID S : BB->successors()) {
      if (!Reachable[S])
        continue;
      Edges.push_back({BB->id(), S, DenseBitVector(N)});
    }
  }

  // EARLIEST(i,j) = ANTIN(j) & ~AVOUT(i) & (KILL(i) | ~ANTOUT(i)).
  for (Edge &E : Edges) {
    DenseBitVector Guard(Ctx.blockKill(E.From)); // KILL(i)
    DenseBitVector NotAntOut(N, true);
    NotAntOut.andNot(Antic.Out[E.From]);
    Guard |= NotAntOut;

    E.Earliest = Antic.In[E.To];
    E.Earliest.andNot(Avail.Out[E.From]);
    E.Earliest &= Guard;
  }
  // Pseudo-edge into the entry: EARLIEST = ANTIN(entry) (nothing is
  // available before the entry).
  DenseBitVector EarliestEntry(Antic.In[F.entryBlock()]);

  // Placement sets per edge (and for the entry).
  std::vector<DenseBitVector> InsertOnEdge(Edges.size());
  DenseBitVector InsertAtEntry(N);

  if (Placement == LCMPlacement::SafeEarliest) {
    for (size_t K = 0; K != Edges.size(); ++K)
      InsertOnEdge[K] = Edges[K].Earliest;
    InsertAtEntry = EarliestEntry;
  } else {
    // LATER fixpoint (Drechsler-Stadel):
    //   LATERIN(entry) = EARLIEST(pseudo-edge)
    //   LATERIN(j)     = AND over edges (i,j) of LATER(i,j)
    //   LATER(i,j)     = EARLIEST(i,j) | (LATERIN(i) & ~ANTLOC(i))
    //   INSERT(i,j)    = LATER(i,j) & ~LATERIN(j)
    std::vector<DenseBitVector> LaterIn(F.numBlocks(),
                                        DenseBitVector(N, true));
    LaterIn[F.entryBlock()] = EarliestEntry;
    std::vector<BlockID> RPO = reversePostOrder(F);

    // Group incoming edges per block.
    std::vector<std::vector<size_t>> InEdges(F.numBlocks());
    for (size_t K = 0; K != Edges.size(); ++K)
      InEdges[Edges[K].To].push_back(K);

    auto Later = [&](const Edge &E) {
      DenseBitVector L = LaterIn[E.From];
      L.andNot(Ctx.blockAnticGen(E.From));
      L |= E.Earliest;
      return L;
    };

    bool Changed = true;
    while (Changed) {
      Changed = false;
      for (BlockID B : RPO) {
        if (B == F.entryBlock())
          continue;
        DenseBitVector NewIn(N, true);
        bool Any = false;
        for (size_t K : InEdges[B]) {
          DenseBitVector L = Later(Edges[K]);
          if (!Any) {
            NewIn = std::move(L);
            Any = true;
          } else {
            NewIn &= L;
          }
        }
        if (!Any)
          NewIn = DenseBitVector(N);
        if (NewIn != LaterIn[B]) {
          LaterIn[B] = std::move(NewIn);
          Changed = true;
        }
      }
    }

    for (size_t K = 0; K != Edges.size(); ++K) {
      InsertOnEdge[K] = Later(Edges[K]);
      InsertOnEdge[K].andNot(LaterIn[Edges[K].To]);
    }
    // At the entry, an original occurrence serves as the latest point when
    // it exists (DELETE logic); no node insertion is required.
  }

  // Materialise the insertions, keeping only the strongest check per
  // family at each point. StrongestOf is a dense FamilyID-indexed scratch
  // reset between calls via the touched list; emission stays in ascending
  // family order.
  std::vector<CheckID> StrongestOf(U.numFamilies(), InvalidCheck);
  std::vector<FamilyID> Touched;
  auto Reduce = [&](const DenseBitVector &Bits, std::vector<CheckID> &Out) {
    Touched.clear();
    Bits.forEachSetBit([&](size_t C) {
      CheckID Id = static_cast<CheckID>(C);
      FamilyID Fam = U.familyOf(Id);
      CheckID &Slot = StrongestOf[Fam];
      if (Slot == InvalidCheck) {
        Touched.push_back(Fam);
        Slot = Id;
      } else if (U.check(Id).bound() < U.check(Slot).bound()) {
        Slot = Id;
      }
    });
    std::sort(Touched.begin(), Touched.end());
    for (FamilyID Fam : Touched) {
      Out.push_back(StrongestOf[Fam]);
      StrongestOf[Fam] = InvalidCheck;
    }
  };

  // Group insertions by (block, position) so index shifts stay trivial;
  // dense BlockID-indexed buckets visited in ascending block order.
  std::vector<std::vector<CheckID>> AtStart(F.numBlocks());
  std::vector<std::vector<CheckID>> BeforeTerm(F.numBlocks());
  for (size_t K = 0; K != Edges.size(); ++K) {
    if (InsertOnEdge[K].none())
      continue;
    std::vector<CheckID> Ids;
    Reduce(InsertOnEdge[K], Ids);
    InsertPoint P = pointForEdge(F, Edges[K].From, Edges[K].To);
    auto &Dest = P.AtStart ? AtStart[P.Block] : BeforeTerm[P.Block];
    Dest.insert(Dest.end(), Ids.begin(), Ids.end());
  }
  if (InsertAtEntry.any()) {
    std::vector<CheckID> Ids;
    Reduce(InsertAtEntry, Ids);
    auto &Dest = AtStart[F.entryBlock()];
    Dest.insert(Dest.end(), Ids.begin(), Ids.end());
  }

  auto MakeCheck = [&](CheckID Id) {
    Instruction I;
    I.Op = Opcode::Check;
    I.Check = U.check(Id);
    I.Origin = Ctx.representativeOrigin(Id);
    I.Tag = F.allocateCheckTag();
    return I;
  };
  bool SE = Placement == LCMPlacement::SafeEarliest;
  auto Note = [&](size_t B, const Instruction &I, obs::JustificationId Why) {
    PR.record(obs::LifecycleKind::Inserted, obs::LifecyclePass::LazyCodeMotion,
              F, static_cast<BlockID>(B), I, Why);
  };

  for (size_t B = 0; B != AtStart.size(); ++B) {
    size_t Pos = 0;
    for (CheckID Id : AtStart[B]) {
      Instruction I = MakeCheck(Id);
      Note(B, I,
           SE ? obs::JustificationId::LcmSafeEarliestAtStart
              : obs::JustificationId::LcmLatestAtStart);
      F.block(static_cast<BlockID>(B))->insertAt(Pos++, std::move(I));
    }
  }
  for (size_t B = 0; B != BeforeTerm.size(); ++B) {
    for (CheckID Id : BeforeTerm[B]) {
      Instruction I = MakeCheck(Id);
      Note(B, I,
           SE ? obs::JustificationId::LcmSafeEarliestBeforeTerminator
              : obs::JustificationId::LcmLatestBeforeTerminator);
      F.block(static_cast<BlockID>(B))->insertBeforeTerminator(std::move(I));
    }
  }
}
