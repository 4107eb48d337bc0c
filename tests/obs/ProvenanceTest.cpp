//===----------------------------------------------------------------------===//
///
/// \file
/// Unit tests for the check-lifecycle provenance recorder (obs/Provenance.h):
/// event recording and querying, internal-consistency validation, the JSON
/// envelope schema validator (including its rejection of dangling witness
/// tags), the DOT export, and the -explain decision chains produced through
/// the full pipeline.
///
//===----------------------------------------------------------------------===//

#include "driver/Pipeline.h"
#include "obs/BenchSchema.h"
#include "obs/Json.h"
#include "obs/Provenance.h"

#include "gtest/gtest.h"

using namespace nascent;
using obs::LifecycleEvent;
using obs::LifecycleKind;
using obs::LifecyclePass;

namespace {

/// A bare event (no function, no payload snapshot): enough for the
/// recorder's grouping, counting and validation logic.
LifecycleEvent event(CheckTag Tag, LifecycleKind Kind,
                     LifecyclePass Pass = LifecyclePass::Elimination) {
  LifecycleEvent E;
  E.Tag = Tag;
  E.Kind = Kind;
  E.Pass = Pass;
  return E;
}

TEST(Provenance, RecordsInOrderAndCounts) {
  obs::ProvenanceRecorder PR;
  PR.record(event(1, LifecycleKind::Inserted, LifecyclePass::Lowering));
  PR.record(event(2, LifecycleKind::Inserted, LifecyclePass::Lowering));
  PR.record(event(1, LifecycleKind::Strengthened,
                  LifecyclePass::CheckStrengthening));
  PR.record(event(1, LifecycleKind::Residualized, LifecyclePass::Pipeline));
  PR.record(event(2, LifecycleKind::Eliminated, LifecyclePass::Elimination));

  ASSERT_EQ(PR.events().size(), 5u);
  for (size_t I = 0; I != PR.events().size(); ++I)
    EXPECT_EQ(PR.events()[I].Seq, I);

  EXPECT_EQ(PR.count(LifecycleKind::Inserted), 2u);
  EXPECT_EQ(PR.count(LifecycleKind::Inserted, LifecyclePass::Lowering), 2u);
  EXPECT_EQ(PR.count(LifecycleKind::Inserted, LifecyclePass::LazyCodeMotion),
            0u);
  EXPECT_EQ(PR.count(LifecycleKind::Eliminated, LifecyclePass::Elimination),
            1u);

  EXPECT_EQ(PR.timelines(),
            (std::vector<std::vector<size_t>>{{0, 2, 3}, {1, 4}}));
  EXPECT_EQ(PR.timelineOf(1), (std::vector<size_t>{0, 2, 3}));
  ASSERT_NE(PR.lastEventOf(2), nullptr);
  EXPECT_EQ(PR.lastEventOf(2)->Kind, LifecycleKind::Eliminated);
  EXPECT_EQ(PR.lastEventOf(99), nullptr);
}

TEST(Provenance, TerminalKindClassification) {
  EXPECT_FALSE(obs::isTerminalLifecycleKind(LifecycleKind::Inserted));
  EXPECT_FALSE(obs::isTerminalLifecycleKind(LifecycleKind::Strengthened));
  EXPECT_FALSE(obs::isTerminalLifecycleKind(LifecycleKind::Moved));
  EXPECT_TRUE(obs::isTerminalLifecycleKind(LifecycleKind::SubsumedBy));
  EXPECT_TRUE(obs::isTerminalLifecycleKind(LifecycleKind::Eliminated));
  EXPECT_TRUE(obs::isTerminalLifecycleKind(LifecycleKind::Trapped));
  EXPECT_TRUE(obs::isTerminalLifecycleKind(LifecycleKind::Residualized));
}

TEST(Provenance, ValidateCatchesDanglingWitness) {
  obs::ProvenanceRecorder PR;
  PR.record(event(1, LifecycleKind::Inserted));
  LifecycleEvent E = event(1, LifecycleKind::SubsumedBy);
  E.OtherTag = 42; // never recorded
  PR.record(E);
  std::vector<std::string> Problems = PR.validate();
  ASSERT_FALSE(Problems.empty());
  bool Found = false;
  for (const std::string &P : Problems)
    if (P.find("42") != std::string::npos)
      Found = true;
  EXPECT_TRUE(Found) << "no problem mentions the dangling tag";
}

TEST(Provenance, ValidateCatchesNonTerminalLifecycle) {
  obs::ProvenanceRecorder PR;
  PR.record(event(1, LifecycleKind::Inserted));
  EXPECT_FALSE(PR.validate().empty());
  PR.record(event(1, LifecycleKind::Residualized));
  EXPECT_TRUE(PR.validate().empty());
}

TEST(Provenance, ValidateCatchesEventsAfterTerminal) {
  obs::ProvenanceRecorder PR;
  PR.record(event(1, LifecycleKind::Inserted));
  PR.record(event(1, LifecycleKind::Eliminated));
  PR.record(event(1, LifecycleKind::Moved));
  // The Moved-after-Eliminated and the now non-terminal ending both count.
  EXPECT_FALSE(PR.validate().empty());
}

/// Wraps a recorder into the documented envelope and parses it back.
obs::JsonValue envelope(const obs::ProvenanceRecorder &PR) {
  std::string Doc = "{\"schemaVersion\": " +
                    std::to_string(obs::BenchSchemaVersion) +
                    ", \"provenance\": " + PR.toJson() + "}";
  obs::JsonValue V;
  std::string Err;
  EXPECT_TRUE(obs::parseJson(Doc, V, &Err)) << Err;
  return V;
}

TEST(Provenance, EnvelopeValidates) {
  obs::ProvenanceRecorder PR;
  PR.record(event(1, LifecycleKind::Inserted, LifecyclePass::Lowering));
  PR.record(
      event(2, LifecycleKind::Inserted, LifecyclePass::PreheaderInsertion));
  LifecycleEvent Sub = event(1, LifecycleKind::SubsumedBy);
  Sub.OtherTag = 2;
  PR.record(Sub);
  PR.record(event(2, LifecycleKind::Residualized, LifecyclePass::Pipeline));

  std::string Err;
  EXPECT_TRUE(obs::validateProvenanceDocument(envelope(PR), &Err)) << Err;
}

TEST(Provenance, DocumentValidatorRejectsCorruption) {
  obs::ProvenanceRecorder PR;
  PR.record(event(1, LifecycleKind::Inserted, LifecyclePass::Lowering));
  PR.record(event(1, LifecycleKind::Residualized, LifecyclePass::Pipeline));
  std::string Prov = PR.toJson();

  auto Reject = [](const std::string &Doc) {
    obs::JsonValue V;
    std::string Err;
    ASSERT_TRUE(obs::parseJson(Doc, V, &Err)) << Err;
    EXPECT_FALSE(obs::validateProvenanceDocument(V, &Err)) << Doc;
    EXPECT_FALSE(Err.empty());
  };

  // Wrong schema version.
  Reject("{\"schemaVersion\": 999999, \"provenance\": " + Prov + "}");
  // Missing provenance payload.
  Reject("{\"schemaVersion\": " + std::to_string(obs::BenchSchemaVersion) +
         "}");
  // Unknown lifecycle kind.
  Reject("{\"schemaVersion\": " + std::to_string(obs::BenchSchemaVersion) +
         ", \"provenance\": {\"events\": [{\"seq\": 0, \"tag\": 1, "
         "\"kind\": \"vanished\", \"pass\": \"P\", \"function\": \"f\", "
         "\"block\": \"entry\", \"check\": \"c\"}], \"checks\": []}}");
  // Dangling witness reference.
  Reject("{\"schemaVersion\": " + std::to_string(obs::BenchSchemaVersion) +
         ", \"provenance\": {\"events\": [{\"seq\": 0, \"tag\": 1, "
         "\"kind\": \"subsumed-by\", \"otherTag\": 7, \"pass\": \"P\", "
         "\"function\": \"f\", \"block\": \"entry\", \"check\": \"c\"}], "
         "\"checks\": []}}");
}

/// Compiles (provenance is always recorded); the program is written so
/// line 7 holds the only subscripted statement.
CompileResult compileWithProvenance(PlacementScheme Scheme) {
  PipelineOptions PO;
  PO.Opt.Scheme = Scheme;
  CompileResult R = compileSource(R"(
program p
  integer n, i
  real a(50)
  n = input(40)
  do i = 1, n
    a(i) = a(i) + 1.0
  end do
  print a(1)
end program
function input(x) : integer
  integer x
  return x
end function
)",
                                  PO);
  EXPECT_TRUE(R.Success) << R.Diags.render();
  return R;
}

TEST(Provenance, PipelineProducesClosedLifecycles) {
  CompileResult R = compileWithProvenance(PlacementScheme::LLS);
  EXPECT_FALSE(R.Provenance.events().empty());
  std::vector<std::string> Problems = R.Provenance.validate();
  EXPECT_TRUE(Problems.empty())
      << "provenance not closed: " << Problems.front();
}

TEST(Provenance, SnapshotsOnlyForPayloadChanges) {
  CompileResult R = compileWithProvenance(PlacementScheme::LLS);
  const obs::ProvenanceRecorder &PR = R.Provenance;
  EXPECT_EQ(PR.snapshots().size(),
            PR.count(LifecycleKind::Inserted) +
                PR.count(LifecycleKind::Strengthened) +
                PR.count(LifecycleKind::Moved));
  // Every event of a pipeline record names its function, block and
  // payload, and renders them on demand.
  for (const LifecycleEvent &E : PR.events()) {
    ASSERT_NE(E.Fn, nullptr);
    ASSERT_NE(E.Check, obs::NoSnapshot) << "event #" << E.Seq;
    EXPECT_FALSE(PR.blockName(E).empty());
    EXPECT_EQ(PR.checkStr(E).rfind("Check(", 0), 0u) << PR.checkStr(E);
    EXPECT_FALSE(PR.justificationText(E).empty());
  }
}

TEST(Provenance, ExplainSiteShowsCompleteChain) {
  CompileResult R = compileWithProvenance(PlacementScheme::LLS);
  // The a(i) subscripts sit on line 7 of the raw-string source (the
  // leading newline makes "program p" line 2).
  std::string Chain = R.Provenance.explainSite(7);
  ASSERT_FALSE(Chain.empty());
  EXPECT_NE(Chain.find("check t"), std::string::npos) << Chain;
  EXPECT_NE(Chain.find("inserted"), std::string::npos) << Chain;
  // Every chain ends in a terminal verdict.
  bool Terminal = Chain.find("residualized") != std::string::npos ||
                  Chain.find("eliminated") != std::string::npos ||
                  Chain.find("subsumed-by") != std::string::npos ||
                  Chain.find("trapped") != std::string::npos;
  EXPECT_TRUE(Terminal) << Chain;
  // A site with no checks yields nothing.
  EXPECT_TRUE(R.Provenance.explainSite(9999).empty());
}

TEST(Provenance, DotExportNamesEveryCheck) {
  CompileResult R = compileWithProvenance(PlacementScheme::LLS);
  std::string Dot = R.Provenance.toDot();
  EXPECT_NE(Dot.find("digraph check_provenance"), std::string::npos);
  for (const std::vector<size_t> &Chain : R.Provenance.timelines()) {
    CheckTag T = R.Provenance.events()[Chain.front()].Tag;
    EXPECT_NE(Dot.find("t" + std::to_string(T)), std::string::npos)
        << "tag " << T << " missing from DOT export";
  }
}

TEST(Provenance, EnvelopeValidatesForPipelineOutput) {
  CompileResult R = compileWithProvenance(PlacementScheme::MCM);
  std::string Err;
  EXPECT_TRUE(obs::validateProvenanceDocument(envelope(R.Provenance), &Err))
      << Err;
}

} // namespace
