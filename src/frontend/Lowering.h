//===----------------------------------------------------------------------===//
///
/// \file
/// Lowers the semantically analyzed AST into the Nascent IR, inserting a
/// naive pair of range checks (lower and upper bound) for every subscript
/// of every array access — the unoptimized baseline of the paper's
/// Table 1. Do loops are lowered to the canonical shape the optimizer
/// expects (preheader / header / body / latch / exit) and described by
/// DoLoopInfo metadata.
///
//===----------------------------------------------------------------------===//

#ifndef NASCENT_FRONTEND_LOWERING_H
#define NASCENT_FRONTEND_LOWERING_H

#include "ir/Function.h"
#include "lang/AST.h"

namespace nascent {

/// Options controlling lowering.
struct LoweringOptions {
  /// Insert naive range checks at every array access.
  bool InsertChecks = true;
};

/// Lowers every unit of \p Prog into the Function shells Sema created in
/// \p M. Must run after a successful Sema::run on the same objects.
void lowerProgram(const ProgramAST &Prog, Module &M,
                  const LoweringOptions &Opts = {});

} // namespace nascent

#endif // NASCENT_FRONTEND_LOWERING_H
