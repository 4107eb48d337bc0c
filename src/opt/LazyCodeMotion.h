//===----------------------------------------------------------------------===//
///
/// \file
/// Lazy-code-motion placement of range checks (paper section 3.3): the
/// safe-earliest and latest-not-isolated transformations of Knoop,
/// Ruthing, and Steffen, in the edge-based formulation of Drechsler and
/// Stadel. Down-safety is the check anticipatability of the paper (so
/// insertions can only move traps earlier, never create new ones), and
/// up-safety is check availability.
///
/// Critical edges must have been split (Function::splitCriticalEdges)
/// before running either placement.
///
//===----------------------------------------------------------------------===//

#ifndef NASCENT_OPT_LAZYCODEMOTION_H
#define NASCENT_OPT_LAZYCODEMOTION_H

#include "obs/Provenance.h"
#include "opt/CheckContext.h"

namespace nascent {

/// Which LCM placement to compute.
enum class LCMPlacement {
  SafeEarliest,      ///< place checks as early as safely possible (SE)
  LatestNotIsolated, ///< delay placements to the latest point (LNI)
};

/// Computes the placement and inserts Check instructions into \p F.
/// Insertion points are CFG edges; with critical edges split each edge has
/// an endpoint that it exclusively owns, so insertions go at the end of a
/// single-successor source or the start of a single-predecessor target.
///
/// At each insertion point only the strongest check per family is
/// materialised; weaker family members earliest at the same point would be
/// immediately redundant. Inserted checks get fresh lifecycle tags and one
/// Inserted event each into \p PR.
void runLazyCodeMotion(Function &F, const CheckContext &Ctx,
                       LCMPlacement Placement, obs::ProvenanceRecorder &PR);

} // namespace nascent

#endif // NASCENT_OPT_LAZYCODEMOTION_H
