//===----------------------------------------------------------------------===//
///
/// \file
/// Dominator tree via the Cooper-Harvey-Kennedy iterative algorithm, plus
/// dominance frontiers (needed for SSA phi placement).
///
//===----------------------------------------------------------------------===//

#ifndef NASCENT_ANALYSIS_DOMINATORS_H
#define NASCENT_ANALYSIS_DOMINATORS_H

#include "ir/Function.h"

#include <span>
#include <vector>

namespace nascent {

/// Immediate-dominator tree for the reachable part of a function's CFG.
///
/// The function's predecessor lists must be current (call recomputePreds
/// before constructing). Unreachable blocks have no idom and dominate
/// nothing. Child lists and frontiers are rows of two flat tables, so a
/// tree costs a fixed number of allocations whatever the block count.
class DominatorTree {
public:
  explicit DominatorTree(const Function &F);

  /// Immediate dominator of \p B; InvalidBlock for the entry and for
  /// unreachable blocks.
  BlockID idom(BlockID B) const { return IDom[B]; }

  /// True when \p A dominates \p B (reflexive).
  bool dominates(BlockID A, BlockID B) const;

  /// True when \p B is reachable from the entry.
  bool isReachable(BlockID B) const { return RPONumber[B] >= 0; }

  /// Children of \p B in the dominator tree, in reverse post-order.
  std::span<const BlockID> children(BlockID B) const {
    return Children.row(B);
  }

  /// Dominance frontier of \p B.
  std::span<const BlockID> frontier(BlockID B) const {
    return Frontier.row(B);
  }

  /// Blocks in reverse post-order (reachable only).
  const std::vector<BlockID> &rpo() const { return RPO; }

private:
  BlockID intersect(BlockID A, BlockID B) const;
  void computeFrontiers(const Function &F);

  /// Per-block lists packed into one array: row B is
  /// Items[Begin[B] .. Begin[B + 1]).
  struct BlockRows {
    std::vector<uint32_t> Begin;
    std::vector<BlockID> Items;

    std::span<const BlockID> row(BlockID B) const {
      return {Items.data() + Begin[B], Begin[B + 1] - Begin[B]};
    }
    /// Packs \p Pairs (row, item) into \p NumRows rows, keeping the
    /// order in which each row's items appear.
    void assign(size_t NumRows,
                const std::vector<std::pair<BlockID, BlockID>> &Pairs);
  };

  std::vector<BlockID> IDom;
  std::vector<int> RPONumber; ///< -1 for unreachable blocks
  std::vector<BlockID> RPO;
  BlockRows Children;
  BlockRows Frontier;
};

} // namespace nascent

#endif // NASCENT_ANALYSIS_DOMINATORS_H
