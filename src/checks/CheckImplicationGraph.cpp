#include "checks/CheckImplicationGraph.h"

#include <algorithm>

using namespace nascent;

void CheckImplicationGraph::addImplication(CheckID Ci, CheckID Cj) {
  FamilyID FI = U.familyOf(Ci);
  FamilyID FJ = U.familyOf(Cj);
  int64_t W = U.check(Cj).bound() - U.check(Ci).bound();
  addFamilyEdge(FI, FJ, W);
}

void CheckImplicationGraph::addFamilyEdge(FamilyID From, FamilyID To,
                                          int64_t Weight) {
  if (From == To)
    return; // within-family strength is the bound order, not an edge
  if (Edges.size() <= From)
    Edges.resize(From + 1);
  std::vector<Edge> &Out = Edges[From];
  auto It = std::lower_bound(
      Out.begin(), Out.end(), To,
      [](const Edge &E, FamilyID Target) { return E.To < Target; });
  if (It != Out.end() && It->To == To) {
    if (Weight >= It->W)
      return; // no edge got cheaper; every cached row stays exact
    It->W = Weight;
  } else {
    Out.insert(It, Edge{To, Weight});
    ++EdgeCount;
  }
  MaxNode = std::max({MaxNode, size_t(From) + 1, size_t(To) + 1});

  // Invalidate only the cached rows this edge can actually improve: a row
  // rooted at S is affected iff S reaches From and relaxing From->To would
  // shorten S's distance to To. Everything else keeps its memo (the
  // previous implementation cleared the whole memo per insert).
  for (DistRow &Row : Rows) {
    if (!Row.Valid)
      continue;
    int64_t DF = distOf(Row, From);
    if (DF == Unreachable)
      continue;
    int64_t DT = distOf(Row, To);
    if (DT == Unreachable || DF + Weight < DT)
      Row.Valid = false;
  }
}

const std::vector<int64_t> &
CheckImplicationGraph::shortestFrom(FamilyID From) const {
  if (Rows.size() <= From)
    Rows.resize(From + 1);
  DistRow &Row = Rows[From];
  if (Row.Valid)
    return Row.Dist;

  // Dijkstra does not handle negative weights; implication edges can be
  // negative (a check can imply a *stronger-constant* check in another
  // family). Use label-correcting search with a visit cap as a safeguard
  // against (unsound, never constructed) negative cycles. The node space
  // covers every family the universe knows plus any id an edge mentions
  // (edges may pre-date the families they connect).
  size_t NumNodes =
      std::max({U.numFamilies(), MaxNode, size_t(From) + 1});
  Row.Dist.assign(NumNodes, Unreachable);
  Row.Dist[From] = 0;
  // FIFO order over a ring: InQueue keeps each node in it at most once.
  if (Queue.size() < NumNodes)
    Queue.resize(NumNodes);
  size_t Head = 0, Queued = 0;
  auto Push = [&](FamilyID F) { Queue[(Head + Queued++) % NumNodes] = F; };
  Push(From);
  DenseBitVector InQueue(NumNodes);
  InQueue.set(From);
  size_t Steps = 0;
  const size_t MaxSteps = (NumNodes + 1) * (EdgeCount + 1) + 16;
  while (Queued != 0 && Steps++ < MaxSteps) {
    FamilyID F = Queue[Head];
    Head = (Head + 1) % NumNodes;
    --Queued;
    InQueue.reset(F);
    if (F >= Edges.size())
      continue;
    int64_t DF = Row.Dist[F];
    for (const Edge &E : Edges[F]) {
      if (DF + E.W < Row.Dist[E.To]) {
        Row.Dist[E.To] = DF + E.W;
        if (!InQueue.test(E.To)) {
          InQueue.set(E.To);
          Push(E.To);
        }
      }
    }
  }
  Row.Valid = true;
  return Row.Dist;
}

std::optional<int64_t> CheckImplicationGraph::pathWeight(FamilyID From,
                                                         FamilyID To) const {
  if (From == To)
    return 0;
  if (EdgeCount == 0)
    return std::nullopt;
  const std::vector<int64_t> &Dist = shortestFrom(From);
  if (To >= Dist.size() || Dist[To] == Unreachable)
    return std::nullopt;
  return Dist[To];
}

bool CheckImplicationGraph::isAsStrongAs(CheckID Ci, CheckID Cj) const {
  if (Ci == Cj)
    return true;
  if (Mode == ImplicationMode::None)
    return false;

  FamilyID FI = U.familyOf(Ci);
  FamilyID FJ = U.familyOf(Cj);
  if (FI == FJ) {
    if (Mode == ImplicationMode::CrossFamilyOnly)
      return false;
    return U.check(Ci).bound() <= U.check(Cj).bound();
  }
  auto W = pathWeight(FI, FJ);
  if (!W)
    return false;
  return U.check(Ci).bound() + *W <= U.check(Cj).bound();
}

void CheckImplicationGraph::weakerClosure(CheckID C,
                                          DenseBitVector &Out) const {
  assert(Out.size() == U.size() && "closure vector not sized to universe");
  Out.set(C);
  if (Mode == ImplicationMode::None)
    return;

  FamilyID FI = U.familyOf(C);
  int64_t BoundC = U.check(C).bound();

  if (Mode != ImplicationMode::CrossFamilyOnly) {
    // Same family: everything with a bound at least ours.
    for (CheckID M : U.familyMembers(FI))
      if (U.check(M).bound() >= BoundC)
        Out.set(M);
  }

  // Cross family: members reachable with accumulated weight. Dist may
  // cover edge-referenced ids beyond the interned families; those have no
  // members yet, so the scan stops at the universe's family count.
  if (EdgeCount == 0)
    return;
  const std::vector<int64_t> &Dist = shortestFrom(FI);
  for (size_t FJ = 0, E = std::min(Dist.size(), U.numFamilies());
       FJ != E; ++FJ) {
    int64_t W = Dist[FJ];
    if (W == Unreachable || FJ == FI)
      continue;
    for (CheckID M : U.familyMembers(static_cast<FamilyID>(FJ)))
      if (BoundC + W <= U.check(M).bound())
        Out.set(M);
  }
}

void CheckImplicationGraph::weakerClosureSameFamily(
    CheckID C, DenseBitVector &Out) const {
  assert(Out.size() == U.size() && "closure vector not sized to universe");
  Out.set(C);
  if (Mode == ImplicationMode::None ||
      Mode == ImplicationMode::CrossFamilyOnly)
    return;
  FamilyID FI = U.familyOf(C);
  int64_t BoundC = U.check(C).bound();
  for (CheckID M : U.familyMembers(FI))
    if (U.check(M).bound() >= BoundC)
      Out.set(M);
}
