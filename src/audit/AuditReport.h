//===----------------------------------------------------------------------===//
///
/// \file
/// Structured findings of the trap-safety auditor. Each finding names the
/// violated rule, the placement scheme under audit, the program point and
/// source location, a severity, and a witness trail explaining what the
/// auditor tried before giving up. Reports render both human-readable
/// (through DiagnosticEngine) and machine-readable (one summary line plus
/// one line per finding, for CI).
///
//===----------------------------------------------------------------------===//

#ifndef NASCENT_AUDIT_AUDITREPORT_H
#define NASCENT_AUDIT_AUDITREPORT_H

#include "ir/Instruction.h"
#include "support/Diagnostics.h"
#include "support/SourceLocation.h"

#include <string>
#include <vector>

namespace nascent {

/// The audit rules. The first group covers direction A ("the optimized
/// program introduces no trap the original lacks"), the second direction B
/// ("no trap of the original is lost"), the third the implication-graph
/// consistency lint. docs/audit.md gives each rule's paper justification.
enum class AuditRule {
  // Direction A: every residual check/trap must be justified.
  CheckNotJustified,     ///< plain check neither anticipated nor implied
  CondCheckNotJustified, ///< guarded preheader check with no valid chain
  TrapNotJustified,      ///< trap with no provably-failing original check
  // Direction B: every original check must stay covered.
  LostCheck, ///< no as-strong-or-stronger optimized check precedes it
  // Structural.
  IrCorrespondence, ///< optimized IR no longer corresponds to the original
  // CIG consistency lint.
  CigNegativeCycle, ///< implication edges form a negative-weight cycle
  CigFamilyOrder,   ///< family members out of order or malformed
  CigKillSet,       ///< a check missing from a symbol's kill index
};

/// Stable rule identifier, e.g. "no-new-trap/check-not-justified".
const char *auditRuleId(AuditRule R);

enum class AuditSeverity { Error, Warning };

/// One audit finding.
struct AuditFinding {
  AuditRule Rule = AuditRule::CheckNotJustified;
  AuditSeverity Severity = AuditSeverity::Error;
  std::string FunctionName;
  BlockID Block = InvalidBlock;
  size_t InstIndex = 0;
  /// Lifecycle tag of the check (or trap) the finding is anchored on;
  /// NoCheckTag when the anchor is no check. Provenance replays the
  /// decisions behind it (ProvenanceRecorder::explainTag).
  CheckTag Tag = NoCheckTag;
  SourceLocation Loc;
  std::string Scheme;  ///< placement scheme name under audit
  std::string Message; ///< one-sentence statement of the violation
  /// Witness trail: the justification attempts, path fragments, or check
  /// strings that explain the verdict.
  std::vector<std::string> Witness;

  /// Renders "rule=... func=... block=... inst=... [tag=...] loc=...:
  /// message"; tag= appears only for a finding anchored on a tagged check.
  std::string str() const;
};

/// Counters describing what one audit run proved; useful both for the CI
/// summary and for tests asserting the auditor is not vacuously true.
struct AuditStats {
  unsigned ChecksAudited = 0;     ///< plain checks examined (direction A)
  unsigned CondChecksAudited = 0; ///< conditional checks examined
  unsigned TrapsAudited = 0;      ///< trap instructions examined
  unsigned OriginalChecksCovered = 0; ///< direction B obligations met
  unsigned JustifiedAnticipated = 0;  ///< rule (a) successes
  unsigned JustifiedAvailable = 0;    ///< rule (c) successes
  unsigned JustifiedPreheader = 0;    ///< rule (b) successes
  unsigned IntervalDischarged = 0;    ///< interval-analysis waivers used
  unsigned LimitDischarged = 0;       ///< loop-limit-substitution waivers
  unsigned FactsValidated = 0;        ///< preheader facts proved sound

  AuditStats &operator+=(const AuditStats &R);
};

/// Aggregated result of auditing one module (or one function pair).
class AuditReport {
public:
  void add(AuditFinding F) { Findings.push_back(std::move(F)); }

  bool clean() const { return Findings.empty(); }
  size_t numFindings() const { return Findings.size(); }
  const std::vector<AuditFinding> &findings() const { return Findings; }

  AuditStats &stats() { return Stats; }
  const AuditStats &stats() const { return Stats; }

  /// Emits every finding into \p Diags (errors as errors, warnings as
  /// warnings), prefixed with "audit:".
  void emitTo(DiagnosticEngine &Diags) const;

  /// One machine-readable line: "audit: status=... findings=N checks=N
  /// condchecks=N traps=N covered=N facts=N". CI greps for status=fail.
  std::string summaryLine() const;

  /// Full human-readable rendering: summary line plus one line per
  /// finding with its witness trail indented.
  std::string render() const;

  /// Merges \p R (per-function report) into this (module report).
  AuditReport &operator+=(const AuditReport &R);

private:
  std::vector<AuditFinding> Findings;
  AuditStats Stats;
};

} // namespace nascent

#endif // NASCENT_AUDIT_AUDITREPORT_H
