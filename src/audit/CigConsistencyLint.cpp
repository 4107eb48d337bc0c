#include "audit/CigConsistencyLint.h"

#include <algorithm>
#include <map>
#include <string>
#include <vector>

using namespace nascent;

namespace {

AuditFinding makeFinding(AuditRule Rule, const std::string &Where,
                         std::string Message) {
  AuditFinding F;
  F.Rule = Rule;
  F.Severity = AuditSeverity::Error;
  F.FunctionName = Where;
  F.Message = std::move(Message);
  return F;
}

} // namespace

size_t nascent::lintCheckImplicationGraph(const CheckUniverse &U,
                                          const CheckImplicationGraph &CIG,
                                          const std::string &Where,
                                          AuditReport &Report) {
  size_t Before = Report.numFindings();

  // --- 2. family total order -------------------------------------------
  for (FamilyID F = 0; F != U.numFamilies(); ++F) {
    const LinearExpr &Expr = U.familyExpr(F);
    std::span<const CheckID> Members = U.familyMembers(F);
    int64_t PrevBound = 0;
    bool HavePrev = false;
    for (CheckID C : Members) {
      const CheckExpr &CE = U.check(C);
      if (CE.expr() != Expr)
        Report.add(makeFinding(
            AuditRule::CigFamilyOrder, Where,
            "family " + std::to_string(F) +
                " member's range-expression differs from the family's"));
      if (CE.expr().constantPart() != 0)
        Report.add(makeFinding(AuditRule::CigFamilyOrder, Where,
                               "family " + std::to_string(F) +
                                   " member carries a constant part"));
      if (U.familyOf(C) != F)
        Report.add(makeFinding(AuditRule::CigFamilyOrder, Where,
                               "family " + std::to_string(F) +
                                   " member maps back to another family"));
      if (HavePrev && CE.bound() <= PrevBound)
        Report.add(makeFinding(
            AuditRule::CigFamilyOrder, Where,
            "family " + std::to_string(F) +
                " members are not strictly ascending by bound (" +
                std::to_string(PrevBound) + " then " +
                std::to_string(CE.bound()) + ")"));
      PrevBound = CE.bound();
      HavePrev = true;
    }
  }

  // --- 3. kill-set completeness ----------------------------------------
  for (CheckID C = 0; C != U.size(); ++C) {
    for (const auto &[Sym, Coeff] : U.check(C).expr().terms()) {
      (void)Coeff;
      std::span<const CheckID> Users = U.checksUsingSymbol(Sym);
      if (std::find(Users.begin(), Users.end(), C) == Users.end())
        Report.add(makeFinding(
            AuditRule::CigKillSet, Where,
            "check " + std::to_string(C) +
                " is missing from the kill index of symbol " +
                std::to_string(Sym) +
                "; a definition of that symbol would not kill it"));
    }
  }

  // --- 1. negative-weight asymmetry ------------------------------------
  // Bellman-Ford over the family nodes that appear on edges. Implication
  // edges say "as strong as, up to a bound shift"; a cycle with negative
  // total weight would prove a check strictly stronger than itself.
  std::vector<std::tuple<FamilyID, FamilyID, int64_t>> Edges;
  std::map<FamilyID, size_t> NodeIndex;
  CIG.forEachEdge([&](FamilyID From, FamilyID To, int64_t W) {
    Edges.emplace_back(From, To, W);
    NodeIndex.emplace(From, NodeIndex.size());
    NodeIndex.emplace(To, NodeIndex.size());
  });
  if (!Edges.empty()) {
    size_t N = NodeIndex.size();
    std::vector<int64_t> Dist(N, 0); // all-zero start finds any neg cycle
    for (size_t Round = 0; Round + 1 < N; ++Round) {
      bool Any = false;
      for (const auto &[From, To, W] : Edges) {
        int64_t Cand = Dist[NodeIndex[From]] + W;
        if (Cand < Dist[NodeIndex[To]]) {
          Dist[NodeIndex[To]] = Cand;
          Any = true;
        }
      }
      if (!Any)
        break;
    }
    for (const auto &[From, To, W] : Edges)
      if (Dist[NodeIndex[From]] + W < Dist[NodeIndex[To]]) {
        Report.add(makeFinding(
            AuditRule::CigNegativeCycle, Where,
            "implication edges form a negative-weight cycle through "
            "families " +
                std::to_string(From) + " -> " + std::to_string(To) +
                " (weight " + std::to_string(W) +
                "); the as-strong-as relation is unsound"));
        break; // one finding per graph is enough
      }
  }

  return Report.numFindings() - Before;
}
