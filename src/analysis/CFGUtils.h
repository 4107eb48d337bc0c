//===----------------------------------------------------------------------===//
///
/// \file
/// CFG traversal utilities: reverse post-order (the iteration order of the
/// forward data-flow solver) and reachability.
///
//===----------------------------------------------------------------------===//

#ifndef NASCENT_ANALYSIS_CFGUTILS_H
#define NASCENT_ANALYSIS_CFGUTILS_H

#include "ir/Function.h"

#include <cstdint>
#include <vector>

namespace nascent {

/// Blocks reachable from the entry, in reverse post-order.
std::vector<BlockID> reversePostOrder(const Function &F);

/// The reverse post-order of a CFG with each block's position in it: the
/// visiting order of every data-flow solve over that CFG, computed once
/// and shared by all of them (a CheckContext keeps one per build).
struct BlockOrder {
  BlockOrder() = default;
  explicit BlockOrder(const Function &F);

  /// Position of a block no path from the entry reaches.
  static constexpr uint32_t Unreachable = UINT32_MAX;

  /// Reachable blocks in reverse post-order.
  std::vector<BlockID> RPO;
  /// Block -> index in RPO; Unreachable for unreachable blocks.
  std::vector<uint32_t> Position;
};

/// Per-block reachability from the entry (indexed by BlockID).
std::vector<bool> reachableBlocks(const Function &F);

} // namespace nascent

#endif // NASCENT_ANALYSIS_CFGUTILS_H
