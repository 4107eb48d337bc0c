//===----------------------------------------------------------------------===//
///
/// \file
/// A generic iterative bit-vector data-flow solver. The range-check
/// optimizer instantiates it four ways: availability (forward/intersect),
/// anticipatability (backward/intersect), and the LCM "later/isolated"
/// systems. Blocks transfer via Out = Gen | (In & ~Kill).
///
//===----------------------------------------------------------------------===//

#ifndef NASCENT_ANALYSIS_DATAFLOW_H
#define NASCENT_ANALYSIS_DATAFLOW_H

#include "ir/Function.h"
#include "support/DenseBitVector.h"

#include <span>
#include <vector>

namespace nascent {

/// Description of one bit-vector data-flow problem over a function's CFG.
struct DataflowProblem {
  enum class Direction { Forward, Backward };
  enum class Meet { Intersect, Union };

  Direction Dir = Direction::Forward;
  Meet MeetOp = Meet::Intersect;
  size_t UniverseSize = 0;

  /// Per-block Gen and Kill sets, indexed by BlockID, each sized to
  /// UniverseSize. The problem only refers to the tables: their owner
  /// (typically a CheckContext) keeps them alive across the solve, so a
  /// solve copies no transfer sets.
  std::span<const DenseBitVector> Gen;
  std::span<const DenseBitVector> Kill;

  /// Value at the CFG boundary: the entry's In for forward problems, the
  /// Out of exit blocks (Ret/Trap) for backward problems. Defaults to the
  /// empty set when left unsized.
  DenseBitVector Boundary;
};

/// Solution: In = set at block entry, Out = set at block exit, regardless
/// of direction.
struct DataflowResult {
  std::vector<DenseBitVector> In;
  std::vector<DenseBitVector> Out;
  /// Block recomputations the solve performed to reach the fixpoint;
  /// pass it to creditDataflowSolve when replaying a memoised solve.
  uint64_t Visits = 0;
};

/// Solves \p P to its maximal (Intersect) or minimal (Union) fixpoint.
/// Predecessor lists of \p F must be current.
DataflowResult solveDataflow(const Function &F, const DataflowProblem &P);

/// Records the solver's telemetry (solve count, block visits, the
/// visits-per-solve histogram) for a solve that was answered from a memo
/// instead of re-run, so cached and organic runs emit identical stats.
void creditDataflowSolve(uint64_t Visits);

} // namespace nascent

#endif // NASCENT_ANALYSIS_DATAFLOW_H
