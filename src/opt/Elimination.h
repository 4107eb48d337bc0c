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

/// Deletes every plain check that some as-strong-as check makes available
/// at its program point. \p Ctx must describe the current IR (including
/// any facts from preheader insertion). One terminal SubsumedBy lifecycle
/// event per deleted check goes to \p PR, citing the witness check tag
/// when a single witness is determinable (an earlier check in the block,
/// or the preheader conditional behind an entry fact).
void eliminateRedundantChecks(Function &F, const CheckContext &Ctx,
                              obs::ProvenanceRecorder &PR);

/// Folds compile-time-constant checks and guards. Always-failing plain
/// checks become TRAP terminators (truncating the rest of the block) and
/// are reported into \p Diags as warnings. Deletions and traps record
/// Eliminated / Trapped lifecycle events into \p PR; the Trap inherits
/// the folded check's tag, and checks swept away by block truncation get
/// Eliminated events under the pseudo-pass Unreachable.
void foldCompileTimeChecks(Function &F, DiagnosticEngine &Diags,
                           obs::ProvenanceRecorder &PR);

} // namespace nascent

#endif // NASCENT_OPT_ELIMINATION_H
