#include "checks/INXSynthesis.h"

#include "analysis/Dominators.h"
#include "analysis/InductionVariables.h"
#include "analysis/LoopInfo.h"
#include "analysis/SSA.h"
#include "obs/StatRegistry.h"
#include "support/DenseBitVector.h"

using namespace nascent;

NASCENT_STAT(NumInxSeen, "checks.inx.seen",
             "checks examined by INX synthesis");
NASCENT_STAT(NumInxLinear, "checks.inx.rewritten_linear",
             "checks rewritten to linear induction form");
NASCENT_STAT(NumInxInvariant, "checks.inx.rewritten_invariant",
             "checks rewritten over loop-entry snapshots");
NASCENT_STAT(NumInxSnapshots, "checks.inx.snapshots",
             "loop-entry snapshot copies inserted");
NASCENT_STAT(NumInxBasicVars, "checks.inx.basic_vars",
             "basic loop variables materialised");

namespace {

/// Planned replacement of a check payload.
struct CheckRewrite {
  BlockID Block;
  size_t InstIdx;
  CheckExpr NewCheck;
  bool Linear; ///< linear in the basic variable (else invariant)
};

/// Planned snapshot copy t = src at the end of a loop preheader, taken
/// of SSA value \p Value for loop \p LoopIndex.
struct Snapshot {
  BlockID Preheader;
  SymbolID Temp;
  SymbolID Source;
  unsigned LoopIndex;
  SSAValueID Value;
};

} // namespace

INXStats nascent::synthesizeINXChecks(Function &F,
                                      obs::ProvenanceRecorder *Prov) {
  INXStats Stats;
  F.recomputePreds();

  // Materialise basic loop variables before building SSA so their phis
  // participate in the induction analysis.
  for (DoLoopInfo &L : F.doLoops()) {
    if (L.BasicVar != InvalidSymbol)
      continue;
    SymbolID H = F.symbols().createTemp(ScalarType::Int, "h");
    L.BasicVar = H;
    Instruction Init;
    Init.Op = Opcode::Copy;
    Init.Dest = H;
    Init.Operands = {Value::intConst(0)};
    F.block(L.Preheader)->insertBeforeTerminator(std::move(Init));
    Instruction Step;
    Step.Op = Opcode::Add;
    Step.Dest = H;
    Step.Operands = {Value::sym(H), Value::intConst(1)};
    F.block(L.Latch)->insertAt(0, std::move(Step));
    ++Stats.BasicVarsMaterialized;
  }

  DominatorTree DT(F);
  LoopInfo LI(F, DT);
  SSA S(F, DT);
  InductionAnalysis IV(S, LI, DT);

  // Per-loop sets of symbols defined inside the loop, to decide whether a
  // region-constant SSA value can be named by its symbol directly or needs
  // a loop-entry snapshot. Indexed by the loop's header block.
  std::vector<DenseBitVector> DefinedIn(F.numBlocks());
  for (const Loop *L : LI.loopsInnermostFirst()) {
    DenseBitVector &Defs = DefinedIn[L->Header];
    Defs.resize(F.symbols().size());
    for (BlockID B : L->Blocks)
      for (const Instruction &I : F.block(B)->instructions())
        if (I.Dest != InvalidSymbol)
          Defs.set(I.Dest);
  }

  std::vector<CheckRewrite> Rewrites;
  std::vector<Snapshot> Snapshots;

  auto ResolveBaseValue = [&](SSAValueID V, const Loop *L,
                              SymbolID &OutSym) -> bool {
    const SSADef &D = S.def(V);
    if (D.Sym == InvalidSymbol)
      return false;
    if (!DefinedIn[L->Header].test(D.Sym)) {
      // The symbol is never written inside the loop: its value anywhere in
      // the loop equals the region-constant value; use it directly.
      OutSym = D.Sym;
      return true;
    }
    if (L->Preheader == InvalidBlock)
      return false;
    // Snapshots are few: a scan finds one already planned.
    for (const Snapshot &SN : Snapshots)
      if (SN.LoopIndex == L->Index && SN.Value == V) {
        OutSym = SN.Temp;
        return true;
      }
    SymbolID T = F.symbols().createTemp(ScalarType::Int, "snap");
    Snapshots.push_back({L->Preheader, T, D.Sym, L->Index, V});
    OutSym = T;
    return true;
  };

  for (BlockID B = 0; B != F.numBlocks(); ++B) {
    if (!DT.isReachable(B))
      continue;
    const Loop *L = LI.loopFor(B);
    if (!L)
      continue;
    auto &Insts = F.block(B)->instructions();
    for (size_t Idx = 0; Idx != Insts.size(); ++Idx) {
      const Instruction &I = Insts[Idx];
      if (I.Op != Opcode::Check)
        continue;
      ++Stats.ChecksSeen;

      // Combine the induction expressions of every term. A coefficient
      // that overflows leaves the check in its original form.
      IVExpr Total = IVExpr::constant(0, L);
      bool Failed = false;
      for (const auto &[Sym, Coeff] : I.Check.expr().terms()) {
        IVExpr Part = IV.classifyUse(B, Idx, Sym, L);
        if (Part.K != IVExpr::Kind::Invariant &&
            Part.K != IVExpr::Kind::Linear) {
          Failed = true;
          break;
        }
        Total = IVExpr::add(Total, IVExpr::scale(Part, Coeff));
        if (Total.K == IVExpr::Kind::Unknown) {
          Failed = true;
          break;
        }
      }
      if (Failed)
        continue;

      // Build the induction-expression form of the check.
      LinearExpr NewExpr;
      if (Total.Coeff != 0) {
        const Loop *LL = L;
        if (LL->DoLoopIndex < 0)
          continue; // linear in a while loop: no basic variable
        SymbolID H = F.doLoops()[static_cast<size_t>(LL->DoLoopIndex)]
                         .BasicVar;
        NewExpr.addTerm(H, Total.Coeff);
      }
      bool BaseOK = true;
      for (const auto &[BV, BC] : Total.Base) {
        if (BC == 0)
          continue;
        SymbolID Sym = InvalidSymbol;
        if (!ResolveBaseValue(BV, L, Sym)) {
          BaseOK = false;
          break;
        }
        NewExpr.addTerm(Sym, BC);
      }
      if (!BaseOK)
        continue;
      NewExpr.addConstant(Total.BaseConst);

      CheckExpr NewCheck(NewExpr, I.Check.bound());
      if (NewCheck == I.Check)
        continue;
      Rewrites.push_back({B, Idx, NewCheck, Total.Coeff != 0});
    }
  }

  // Apply payload rewrites first (no instruction indices shift), then the
  // snapshot copies (which only touch preheaders).
  obs::ProvenanceRecorder Local;
  obs::ProvenanceRecorder &PR = Prov ? *Prov : Local;
  size_t FirstRewrite = PR.events().size();
  for (const CheckRewrite &R : Rewrites) {
    Instruction &I = F.block(R.Block)->instructions()[R.InstIdx];
    I.Check = R.NewCheck;
    PR.record(obs::LifecycleKind::Strengthened,
              obs::LifecyclePass::INXSynthesis, F, R.Block, I,
              R.Linear ? obs::JustificationId::InxRewriteLinear
                       : obs::JustificationId::InxRewriteInvariant);
  }
  for (const Snapshot &SN : Snapshots) {
    Instruction Copy;
    Copy.Op = Opcode::Copy;
    Copy.Dest = SN.Temp;
    Copy.Operands = {Value::sym(SN.Source)};
    F.block(SN.Preheader)->insertBeforeTerminator(std::move(Copy));
    ++Stats.SnapshotsInserted;
  }
  NumInxSeen += Stats.ChecksSeen;
  for (size_t K = FirstRewrite; K != PR.events().size(); ++K) {
    if (PR.events()[K].Justification == obs::JustificationId::InxRewriteLinear)
      ++NumInxLinear;
    else
      ++NumInxInvariant;
  }
  NumInxSnapshots += Stats.SnapshotsInserted;
  NumInxBasicVars += Stats.BasicVarsMaterialized;
  return Stats;
}
