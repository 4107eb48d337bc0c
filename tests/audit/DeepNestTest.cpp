//===----------------------------------------------------------------------===//
///
/// \file
/// The auditor on a do-loop nest of depth 4 (tests/programs/deep_nest.mf):
/// suite nesting chains average 1.6 loops, so transport across three or
/// more loops and guard chains of four entry guards are rare there. The
/// nest's AuditStats are pinned per cell, and a hoisted check loosened by
/// one is still reported.
///
//===----------------------------------------------------------------------===//

#include "audit/TrapSafetyAuditor.h"
#include "driver/Pipeline.h"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

using namespace nascent;

namespace {

std::string deepNestSource() {
  std::ifstream In(std::string(NASCENT_TEST_PROGRAMS_DIR) + "/deep_nest.mf");
  std::stringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

std::string render(const AuditStats &T) {
  std::ostringstream OS;
  OS << "checks=" << T.ChecksAudited << " condchecks=" << T.CondChecksAudited
     << " traps=" << T.TrapsAudited << " covered=" << T.OriginalChecksCovered
     << " facts=" << T.FactsValidated
     << " anticipated=" << T.JustifiedAnticipated
     << " available=" << T.JustifiedAvailable
     << " preheader=" << T.JustifiedPreheader
     << " interval=" << T.IntervalDischarged
     << " limit=" << T.LimitDischarged;
  return OS.str();
}

} // namespace

TEST(DeepNest, AuditStatsArePinned) {
  // Source, scheme and implication mode of each cell, then its stats.
  const std::pair<const char *, const char *> Expected[] = {
      {"PRX LI all", "checks=12 condchecks=6 traps=0 covered=30 facts=21 "
                     "anticipated=12 available=0 preheader=6 interval=0 "
                     "limit=0"},
      {"PRX LI cross", "checks=15 condchecks=6 traps=0 covered=30 facts=21 "
                       "anticipated=15 available=0 preheader=6 interval=0 "
                       "limit=0"},
      {"PRX LI none", "checks=15 condchecks=6 traps=0 covered=30 facts=21 "
                      "anticipated=15 available=0 preheader=6 interval=0 "
                      "limit=0"},
      {"PRX LLS all", "checks=4 condchecks=7 traps=0 covered=30 facts=29 "
                      "anticipated=4 available=0 preheader=7 interval=0 "
                      "limit=0"},
      {"PRX LLS cross", "checks=4 condchecks=7 traps=0 covered=30 facts=29 "
                        "anticipated=4 available=0 preheader=7 interval=0 "
                        "limit=0"},
      {"PRX LLS none", "checks=4 condchecks=7 traps=0 covered=30 facts=29 "
                       "anticipated=4 available=0 preheader=7 interval=0 "
                       "limit=0"},
      {"PRX ALL all", "checks=4 condchecks=7 traps=0 covered=30 facts=29 "
                      "anticipated=4 available=0 preheader=7 interval=0 "
                      "limit=0"},
      {"PRX ALL cross", "checks=4 condchecks=7 traps=0 covered=30 facts=29 "
                        "anticipated=4 available=0 preheader=7 interval=0 "
                        "limit=0"},
      {"PRX ALL none", "checks=4 condchecks=7 traps=0 covered=30 facts=29 "
                       "anticipated=4 available=0 preheader=7 interval=0 "
                       "limit=0"},
      {"PRX MCM all", "checks=8 condchecks=5 traps=0 covered=30 facts=25 "
                      "anticipated=8 available=0 preheader=5 interval=0 "
                      "limit=0"},
      {"PRX MCM cross", "checks=8 condchecks=5 traps=0 covered=30 facts=25 "
                        "anticipated=8 available=0 preheader=5 interval=0 "
                        "limit=0"},
      {"PRX MCM none", "checks=8 condchecks=5 traps=0 covered=30 facts=25 "
                       "anticipated=8 available=0 preheader=5 interval=0 "
                       "limit=0"},
      {"INX LI all", "checks=12 condchecks=6 traps=0 covered=30 facts=20 "
                     "anticipated=12 available=0 preheader=6 interval=0 "
                     "limit=0"},
      {"INX LI cross", "checks=15 condchecks=6 traps=0 covered=30 facts=20 "
                       "anticipated=15 available=0 preheader=6 interval=0 "
                       "limit=0"},
      {"INX LI none", "checks=15 condchecks=6 traps=0 covered=30 facts=20 "
                      "anticipated=15 available=0 preheader=6 interval=0 "
                      "limit=0"},
      {"INX LLS all", "checks=2 condchecks=9 traps=0 covered=30 facts=31 "
                      "anticipated=2 available=0 preheader=9 interval=0 "
                      "limit=0"},
      {"INX LLS cross", "checks=2 condchecks=9 traps=0 covered=30 facts=31 "
                        "anticipated=2 available=0 preheader=9 interval=0 "
                        "limit=0"},
      {"INX LLS none", "checks=2 condchecks=9 traps=0 covered=30 facts=31 "
                       "anticipated=2 available=0 preheader=9 interval=0 "
                       "limit=0"},
      {"INX ALL all", "checks=2 condchecks=9 traps=0 covered=30 facts=31 "
                      "anticipated=2 available=0 preheader=9 interval=0 "
                      "limit=0"},
      {"INX ALL cross", "checks=2 condchecks=9 traps=0 covered=30 facts=31 "
                        "anticipated=2 available=0 preheader=9 interval=0 "
                        "limit=0"},
      {"INX ALL none", "checks=2 condchecks=9 traps=0 covered=30 facts=31 "
                       "anticipated=2 available=0 preheader=9 interval=0 "
                       "limit=0"},
      {"INX MCM all", "checks=8 condchecks=5 traps=0 covered=30 facts=25 "
                      "anticipated=8 available=0 preheader=5 interval=0 "
                      "limit=0"},
      {"INX MCM cross", "checks=8 condchecks=5 traps=0 covered=30 facts=25 "
                        "anticipated=8 available=0 preheader=5 interval=0 "
                        "limit=0"},
      {"INX MCM none", "checks=8 condchecks=5 traps=0 covered=30 facts=25 "
                       "anticipated=8 available=0 preheader=5 interval=0 "
                       "limit=0"},
  };
  std::string Source = deepNestSource();
  ASSERT_FALSE(Source.empty());
  size_t Cell = 0;
  for (CheckSource Src : {CheckSource::PRX, CheckSource::INX})
    for (PlacementScheme Scheme :
         {PlacementScheme::LI, PlacementScheme::LLS, PlacementScheme::ALL,
          PlacementScheme::MCM})
      for (auto [Mode, ModeName] :
           {std::pair{ImplicationMode::All, "all"},
            std::pair{ImplicationMode::CrossFamilyOnly, "cross"},
            std::pair{ImplicationMode::None, "none"}}) {
        std::string Name = std::string(Src == CheckSource::PRX ? "PRX" : "INX") +
                           " " + placementSchemeName(Scheme) + " " + ModeName;
        ASSERT_EQ(Name, Expected[Cell].first);
        PipelineOptions PO;
        PO.Source = Src;
        PO.Opt.Scheme = Scheme;
        PO.Opt.Implications = Mode;
        PO.Audit = true;
        CompileResult R = compileSource(Source, PO);
        ASSERT_TRUE(R.Success) << Name << ": " << R.Diags.render();
        EXPECT_TRUE(R.Audit.clean()) << Name << ":\n" << R.Audit.render();
        EXPECT_EQ(render(R.Audit.stats()), Expected[Cell].second) << Name;
        ++Cell;
      }
}

TEST(DeepNest, LoosenedHoistIsReported) {
  // LLS hoists c(i + j + k + l)'s upper-bound check out of all four
  // loops, guarded by their four entry guards. Loosening its bound by one
  // lets i + j + k + l = 41 through on some run, so the audit against the
  // naive original must lose that check's trap (direction B) — found only
  // by transporting the original check across the whole chain.
  std::string Source = deepNestSource();
  PipelineOptions Naive;
  Naive.Optimize = false;
  CompileResult Orig = compileSource(Source, Naive);
  ASSERT_TRUE(Orig.Success);
  PipelineOptions PO;
  PO.Opt.Scheme = PlacementScheme::LLS;
  CompileResult Opt = compileSource(Source, PO);
  ASSERT_TRUE(Opt.Success);
  AuditOptions AO;
  AO.Scheme = PlacementScheme::LLS;
  {
    std::unique_ptr<Module> O = Orig.M->clone(), P = Opt.M->clone();
    EXPECT_TRUE(auditModulePair(*O, *P, AO).clean());
  }

  size_t Mutants = 0;
  const Function &F = *Opt.M->functions().front();
  for (BlockID B = 0; B != F.numBlocks(); ++B)
    for (size_t Idx = 0; Idx != F.block(B)->size(); ++Idx) {
      const Instruction &I = F.block(B)->instructions()[Idx];
      if (I.Op != Opcode::CondCheck || I.Guards.size() != 4 ||
          I.Check.expr().terms().size() != 4)
        continue;
      std::unique_ptr<Module> O = Orig.M->clone(), P = Opt.M->clone();
      Instruction &M = P->functions().front()->block(B)->instructions()[Idx];
      M.Check = CheckExpr(M.Check.expr(), M.Check.bound() + 1);
      AuditReport R = auditModulePair(*O, *P, AO);
      size_t Lost = 0;
      for (const AuditFinding &Found : R.findings())
        Lost += Found.Rule == AuditRule::LostCheck;
      EXPECT_GE(Lost, 1u) << "loosened " << M.Check.str(F.symbols());
      ++Mutants;
    }
  EXPECT_EQ(Mutants, 1u);
}
