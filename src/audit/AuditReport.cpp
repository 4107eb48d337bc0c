#include "audit/AuditReport.h"

#include <sstream>

using namespace nascent;

const char *nascent::auditRuleId(AuditRule R) {
  switch (R) {
  case AuditRule::CheckNotJustified:
    return "no-new-trap/check-not-justified";
  case AuditRule::CondCheckNotJustified:
    return "no-new-trap/cond-check-not-justified";
  case AuditRule::TrapNotJustified:
    return "no-new-trap/trap-not-justified";
  case AuditRule::LostCheck:
    return "no-lost-trap/check-not-covered";
  case AuditRule::IrCorrespondence:
    return "structure/ir-correspondence";
  case AuditRule::CigNegativeCycle:
    return "cig/negative-cycle";
  case AuditRule::CigFamilyOrder:
    return "cig/family-order";
  case AuditRule::CigKillSet:
    return "cig/kill-set";
  }
  return "?";
}

AuditStats &AuditStats::operator+=(const AuditStats &R) {
  ChecksAudited += R.ChecksAudited;
  CondChecksAudited += R.CondChecksAudited;
  TrapsAudited += R.TrapsAudited;
  OriginalChecksCovered += R.OriginalChecksCovered;
  JustifiedAnticipated += R.JustifiedAnticipated;
  JustifiedAvailable += R.JustifiedAvailable;
  JustifiedPreheader += R.JustifiedPreheader;
  IntervalDischarged += R.IntervalDischarged;
  LimitDischarged += R.LimitDischarged;
  FactsValidated += R.FactsValidated;
  return *this;
}

std::string AuditFinding::str() const {
  std::ostringstream OS;
  OS << "rule=" << auditRuleId(Rule)
     << " severity=" << (Severity == AuditSeverity::Error ? "error" : "warning");
  if (!Scheme.empty())
    OS << " scheme=" << Scheme;
  if (!FunctionName.empty())
    OS << " func=" << FunctionName;
  if (Block != InvalidBlock)
    OS << " block=" << Block << " inst=" << InstIndex;
  if (Tag != NoCheckTag)
    OS << " tag=" << Tag;
  OS << " loc=" << Loc.str() << ": " << Message;
  return OS.str();
}

void AuditReport::emitTo(DiagnosticEngine &Diags) const {
  for (const AuditFinding &F : Findings) {
    std::string Msg = "audit: " + F.str();
    for (const std::string &W : F.Witness)
      Msg += "\n  witness: " + W;
    if (F.Severity == AuditSeverity::Error)
      Diags.error(F.Loc, Msg);
    else
      Diags.warning(F.Loc, Msg);
  }
}

std::string AuditReport::summaryLine() const {
  std::ostringstream OS;
  OS << "audit: status=" << (clean() ? "pass" : "fail")
     << " findings=" << Findings.size()
     << " checks=" << Stats.ChecksAudited
     << " condchecks=" << Stats.CondChecksAudited
     << " traps=" << Stats.TrapsAudited
     << " covered=" << Stats.OriginalChecksCovered
     << " facts=" << Stats.FactsValidated
     << " anticipated=" << Stats.JustifiedAnticipated
     << " available=" << Stats.JustifiedAvailable
     << " preheader=" << Stats.JustifiedPreheader
     << " interval=" << Stats.IntervalDischarged
     << " limit=" << Stats.LimitDischarged;
  return OS.str();
}

std::string AuditReport::render() const {
  std::string Out = summaryLine() + "\n";
  for (const AuditFinding &F : Findings) {
    Out += F.str() + "\n";
    for (const std::string &W : F.Witness)
      Out += "  witness: " + W + "\n";
  }
  return Out;
}

AuditReport &AuditReport::operator+=(const AuditReport &R) {
  for (const AuditFinding &F : R.Findings)
    Findings.push_back(F);
  Stats += R.Stats;
  return *this;
}
