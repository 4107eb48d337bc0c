//===----------------------------------------------------------------------===//
///
/// \file
/// Pins the trap-safety auditor's verdicts over the whole suite matrix
/// (program x 9 schemes x 3 implication modes), for PRX and INX checks
/// alike: every cell audits clean and the summed AuditStats equal fixed
/// totals. A rework of the auditor's internals must leave every counter
/// where it was; a real change of verdicts shows here first.
///
//===----------------------------------------------------------------------===//

#include "driver/Pipeline.h"
#include "suite/Suite.h"

#include <gtest/gtest.h>

#include <sstream>

using namespace nascent;

namespace {

/// Audits every suite cell with checks from \p Src and renders the summed
/// stats in the `key=value` order of the expected strings below.
std::string auditSuiteTotals(CheckSource Src) {
  const PlacementScheme Schemes[] = {
      PlacementScheme::NI,  PlacementScheme::CS,  PlacementScheme::LNI,
      PlacementScheme::SE,  PlacementScheme::LI,  PlacementScheme::LLS,
      PlacementScheme::ALL, PlacementScheme::MCM, PlacementScheme::AI};
  const ImplicationMode Modes[] = {ImplicationMode::All,
                                   ImplicationMode::CrossFamilyOnly,
                                   ImplicationMode::None};
  AuditStats Total;
  for (const SuiteProgram &P : benchmarkSuite())
    for (PlacementScheme Scheme : Schemes)
      for (ImplicationMode Mode : Modes) {
        PipelineOptions PO;
        PO.Source = Src;
        PO.Opt.Scheme = Scheme;
        PO.Opt.Implications = Mode;
        PO.Audit = true;
        CompileResult R = compileSource(P.Source, PO);
        std::string Cell = std::string(P.Name) + " " +
                           placementSchemeName(Scheme) +
                           " mode " + std::to_string(static_cast<int>(Mode));
        EXPECT_TRUE(R.Success) << Cell << ": " << R.Diags.render();
        EXPECT_TRUE(R.Audit.clean()) << Cell << ":\n" << R.Audit.render();
        Total += R.Audit.stats();
      }
  std::ostringstream OS;
  OS << "checks=" << Total.ChecksAudited
     << " condchecks=" << Total.CondChecksAudited
     << " traps=" << Total.TrapsAudited
     << " covered=" << Total.OriginalChecksCovered
     << " facts=" << Total.FactsValidated
     << " anticipated=" << Total.JustifiedAnticipated
     << " available=" << Total.JustifiedAvailable
     << " preheader=" << Total.JustifiedPreheader
     << " interval=" << Total.IntervalDischarged
     << " limit=" << Total.LimitDischarged;
  return OS.str();
}

} // namespace

TEST(AuditTotals, PrxSuiteMatrix) {
  EXPECT_EQ(auditSuiteTotals(CheckSource::PRX),
            "checks=6508 condchecks=1023 traps=0 covered=29160 facts=10776 "
            "anticipated=6478 available=102 preheader=951 interval=18 "
            "limit=0");
}

TEST(AuditTotals, InxSuiteMatrix) {
  EXPECT_EQ(auditSuiteTotals(CheckSource::INX),
            "checks=6806 condchecks=1122 traps=0 covered=29160 facts=10653 "
            "anticipated=6728 available=24 preheader=1176 interval=69 "
            "limit=0");
}
