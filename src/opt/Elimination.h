//===----------------------------------------------------------------------===//
///
/// \file
/// The elimination stages of the optimizer (paper steps 4 and 5):
/// deleting checks that are available at their program point, and folding
/// compile-time-constant checks (true: deleted; false: replaced by a TRAP
/// reported to the programmer).
///
//===----------------------------------------------------------------------===//

#ifndef NASCENT_OPT_ELIMINATION_H
#define NASCENT_OPT_ELIMINATION_H

#include "obs/Provenance.h"
#include "opt/CheckContext.h"
#include "support/Diagnostics.h"

namespace nascent {

/// Statistics of one elimination run.
struct EliminationStats {
  unsigned ChecksDeleted = 0;       ///< redundant by availability
  unsigned CompileTimeDeleted = 0;  ///< constant checks that always pass
  unsigned CompileTimeTraps = 0;    ///< constant checks that always fail
  unsigned GuardsFolded = 0;        ///< constant guards simplified away
};

/// Deletes every plain check that some as-strong-as check makes available
/// at its program point. \p Ctx must describe the current IR (including
/// any facts from preheader insertion). One terminal SubsumedBy lifecycle
/// event per deleted check goes to \p Prov when given, citing the witness
/// check tag when a single witness is determinable (an earlier check in
/// the block, or the preheader conditional behind an entry fact).
EliminationStats eliminateRedundantChecks(Function &F,
                                          const CheckContext &Ctx,
                                          obs::ProvenanceRecorder *Prov = nullptr);

/// Folds compile-time-constant checks and guards. Always-failing plain
/// checks become TRAP terminators (truncating the rest of the block) and
/// are reported into \p Diags as warnings. Deletions and traps record
/// Eliminated / Trapped lifecycle events into \p Prov when given; the Trap
/// inherits the folded check's tag, and checks swept away by block
/// truncation get Eliminated events under the pass name "Unreachable".
EliminationStats foldCompileTimeChecks(Function &F, DiagnosticEngine &Diags,
                                       obs::ProvenanceRecorder *Prov = nullptr);

} // namespace nascent

#endif // NASCENT_OPT_ELIMINATION_H
