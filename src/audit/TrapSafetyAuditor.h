//===----------------------------------------------------------------------===//
///
/// \file
/// The trap-safety auditor: a static soundness analysis over optimized
/// check placements. Given the (original, optimized) IR pair of one
/// function it proves the paper's two obligations independently of the
/// optimizer that produced the pair:
///
///  Direction A — no new traps. Every residual check at point p must be
///  (a) anticipated at p in the original (inserting it cannot trap on any
///  path the original would not), (b) a guarded preheader check whose
///  guard chain and loop-limit substitution are reconstructible from the
///  original's do-loop metadata and anticipatability, or (c) implied — in
///  the as-strong-as order — by a check the original performs on every
///  path to p (so it can never fire first). Trap instructions need an
///  original check proved to always fail at that point.
///
///  Direction B — no lost traps. On every path to an original check, the
///  optimized program must perform an as-strong-or-stronger check first:
///  availability over the optimized IR, seeded with *validated* preheader
///  facts, must cover every original check at its corresponding point.
///  Deletions discharged by value-range analysis (scheme AI) are certified
///  by re-running the interval classifier on the original.
///
/// Block ids are stable under the optimizer (it only appends split
/// blocks), which is what lets the auditor map program points across the
/// pair by counting non-check instructions ("gaps") per block.
///
//===----------------------------------------------------------------------===//

#ifndef NASCENT_AUDIT_TRAPSAFETYAUDITOR_H
#define NASCENT_AUDIT_TRAPSAFETYAUDITOR_H

#include "audit/AuditReport.h"
#include "ir/Function.h"
#include "opt/RangeCheckOptimizer.h"

namespace nascent {

/// Auditor configuration.
struct AuditOptions {
  /// Scheme that produced the optimized IR; recorded in findings.
  PlacementScheme Scheme = PlacementScheme::LLS;
  /// When set, each function pair appends its three stages (the
  /// original's analyses, direction A, direction B) and their check
  /// contexts' builds and solves to this record, nested under the scope
  /// open around the audit (the pipeline passes CompileResult::Phases).
  obs::PhaseTimings *Phases = nullptr;
};

/// Audits one (original, optimized) function pair, appending findings to
/// \p Report. Both functions' predecessor lists are recomputed (the only
/// mutation). The pair must stem from the same lowering: the original is
/// a pre-optimization clone (see PipelineOptions::Audit).
void auditFunctionPair(Function &Original, Function &Optimized,
                       const AuditOptions &Opts, AuditReport &Report);

/// Audits every function of the pair of modules, matched by name. A
/// function present in only one module is itself a finding.
AuditReport auditModulePair(Module &Original, Module &Optimized,
                            const AuditOptions &Opts = {});

} // namespace nascent

#endif // NASCENT_AUDIT_TRAPSAFETYAUDITOR_H
