//===----------------------------------------------------------------------===//
///
/// \file
/// INX check synthesis (paper section 2.3): rewrites the range-expression
/// of each check into the induction-expression form computed by the
/// SSA-based induction-variable analysis. Each counted loop gets a
/// materialised basic loop variable h (0, 1, 2, ...); a check classified
/// linear becomes  c*h + base <= k', and a check classified invariant
/// becomes an expression over loop-entry snapshots of its inputs.
///
/// PRX checks that do not classify (polynomial or unknown subscripts,
/// e.g. indirect indexing) are left unchanged, exactly as the paper's
/// optimizer falls back to program-expression checks.
///
//===----------------------------------------------------------------------===//

#ifndef NASCENT_CHECKS_INXSYNTHESIS_H
#define NASCENT_CHECKS_INXSYNTHESIS_H

#include "ir/Function.h"
#include "obs/Provenance.h"

namespace nascent {

/// Statistics of one synthesis run. The rewrites themselves are decisions
/// and live in the lifecycle events (justification InxRewriteLinear or
/// InxRewriteInvariant); these count the scaffolding around them.
struct INXStats {
  unsigned ChecksSeen = 0;
  unsigned SnapshotsInserted = 0;
  unsigned BasicVarsMaterialized = 0;
};

/// Rewrites the checks of \p F in place. Requires the function to be in
/// the post-lowering shape (do-loop metadata intact, preds recomputable).
/// Rewritten checks keep their lifecycle tags; one Strengthened event per
/// payload rewrite (edge = the pre-rewrite PRX form) goes to \p Prov, or
/// to a local recorder when none is given.
INXStats synthesizeINXChecks(Function &F,
                             obs::ProvenanceRecorder *Prov = nullptr);

} // namespace nascent

#endif // NASCENT_CHECKS_INXSYNTHESIS_H
