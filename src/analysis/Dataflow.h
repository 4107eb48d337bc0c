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

#include "analysis/CFGUtils.h"
#include "ir/Function.h"
#include "support/DenseBitVector.h"

namespace nascent {

/// Description of one bit-vector data-flow problem over a function's CFG.
struct DataflowProblem {
  enum class Direction { Forward, Backward };
  enum class Meet { Intersect, Union };

  Direction Dir = Direction::Forward;
  Meet MeetOp = Meet::Intersect;
  size_t UniverseSize = 0;

  /// Per-block Gen and Kill rows, indexed by BlockID, each UniverseSize
  /// bits wide. The problem only refers to the tables: their owner
  /// (typically a CheckContext) keeps them alive across the solve, so a
  /// solve copies no transfer sets.
  const BitRows *Gen = nullptr;
  const BitRows *Kill = nullptr;

  /// Value at the CFG boundary: the entry's In for forward problems, the
  /// Out of exit blocks (Ret/Trap) for backward problems. Defaults to the
  /// empty set when left unsized.
  DenseBitVector Boundary;
};

/// Solution: In = set at block entry, Out = set at block exit, regardless
/// of direction.
struct DataflowResult {
  BitRows In;
  BitRows Out;
  /// Block recomputations the solve performed to reach the fixpoint;
  /// pass it to creditDataflowSolve when replaying a memoised solve.
  uint64_t Visits = 0;
};

/// Solves \p P to its maximal (Intersect) or minimal (Union) fixpoint,
/// visiting blocks in \p Order (F's reverse post-order, reversed for a
/// backward problem). Predecessor lists of \p F must be current. Beyond
/// the two result tables, a solve allocates only a work list over more
/// than 128 reachable blocks (and scratch sets over more than 128 bits).
DataflowResult solveDataflow(const Function &F, const BlockOrder &Order,
                             const DataflowProblem &P);

/// Records the solver's telemetry (solve count, block visits, the
/// visits-per-solve histogram) for a solve that was answered from a memo
/// instead of re-run, so cached and organic runs emit identical stats.
void creditDataflowSolve(uint64_t Visits);

} // namespace nascent

#endif // NASCENT_ANALYSIS_DATAFLOW_H
