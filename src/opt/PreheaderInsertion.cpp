#include "opt/PreheaderInsertion.h"

#include "analysis/Dominators.h"
#include "analysis/LoopInfo.h"

#include <algorithm>
#include <optional>
#include <unordered_map>

using namespace nascent;

namespace {

/// One conditional check planned for a preheader.
struct PlannedCheck {
  std::vector<CheckExpr> Guards;
  CheckExpr Check;
  CheckOrigin Origin;
};

/// Returns the set of symbols defined (as instruction destinations) inside
/// the loop, as a bit set over the function's symbol space — the
/// invariance tests below probe it once per expression term.
DenseBitVector definedSymbols(const Function &F, const Loop &L) {
  DenseBitVector Out(F.symbols().size());
  for (BlockID B : L.Blocks)
    for (const Instruction &I : F.block(B)->instructions())
      if (I.Dest != InvalidSymbol)
        Out.set(I.Dest);
  return Out;
}

bool exprInvariant(const LinearExpr &E, const DenseBitVector &Defined) {
  for (const auto &[Sym, Coeff] : E.terms()) {
    (void)Coeff;
    if (Defined.test(Sym))
      return false;
  }
  return true;
}

/// True when every started iteration of \p L runs to the latch unless it
/// traps: no Ret terminators and no while-loop (unbounded) sub-loop inside.
/// Required before loop-limit substitution may speak for the extreme
/// iteration.
bool everyIterationCompletes(const Function &F, const LoopInfo &LI,
                             const Loop &L) {
  for (BlockID B : L.Blocks) {
    const Instruction &T = F.block(B)->terminator();
    if (T.Op == Opcode::Ret)
      return false;
  }
  for (const Loop *Sub : LI.loopsInnermostFirst()) {
    if (Sub == &L || !L.contains(Sub->Header))
      continue;
    if (Sub->DoLoopIndex < 0)
      return false; // nested while loop: may not terminate
  }
  return true;
}

/// The visit stamps and work list of reachesWithout, reused by every
/// query of one pass: a block is seen in the current search when its
/// stamp equals Epoch.
struct ReachScratch {
  std::vector<uint32_t> SeenAt;
  uint32_t Epoch = 0;
  std::vector<BlockID> Work;
};

/// True when no path from \p From reaches \p Avoid... specifically: DFS
/// from \p From that never enters \p Avoid; returns true when it reaches
/// \p Target or a Ret-terminated block.
bool reachesWithout(const Function &F, BlockID From, BlockID Avoid,
                    BlockID Target, ReachScratch &S) {
  if (From == Avoid)
    return false;
  if (S.SeenAt.size() < F.numBlocks())
    S.SeenAt.resize(F.numBlocks(), 0);
  if (++S.Epoch == 0) {
    std::fill(S.SeenAt.begin(), S.SeenAt.end(), 0);
    S.Epoch = 1;
  }
  S.Work.assign(1, From);
  S.SeenAt[From] = S.Epoch;
  while (!S.Work.empty()) {
    BlockID B = S.Work.back();
    S.Work.pop_back();
    if (B == Target)
      return true;
    const Instruction &T = F.block(B)->terminator();
    if (T.Op == Opcode::Ret)
      return true; // early function exit counts as "escaped"
    for (BlockID Succ : F.block(B)->successors()) {
      if (Succ == Avoid || S.SeenAt[Succ] == S.Epoch)
        continue;
      S.SeenAt[Succ] = S.Epoch;
      S.Work.push_back(Succ);
    }
  }
  return false;
}

/// Substitutes the extreme value of \p Var into \p Expr (which contains
/// Var with coefficient \p Coeff): the maximum value when Coeff > 0, else
/// the minimum.
LinearExpr substituteExtreme(const LinearExpr &Expr, SymbolID Var,
                             int64_t Coeff, const LinearExpr &MinVal,
                             const LinearExpr &MaxVal) {
  LinearExpr Out = Expr;
  Out.substitute(Var, Coeff > 0 ? MaxVal : MinVal);
  return Out;
}

} // namespace

void nascent::runPreheaderInsertion(Function &F, const CheckContext &Ctx,
                                    const PreheaderOptions &Opts,
                                    std::vector<PreheaderFact> &FactsOut,
                                    obs::ProvenanceRecorder &PR,
                                    const LoopInfo *CachedLoops) {
  using obs::JustificationId;
  using obs::LifecycleKind;
  using obs::LifecyclePass;
  const CheckUniverse &U = Ctx.universe();
  if (U.size() == 0)
    return;

  F.recomputePreds();
  std::optional<DominatorTree> OwnDT;
  std::optional<LoopInfo> OwnLI;
  if (!CachedLoops) {
    OwnDT.emplace(F);
    OwnLI.emplace(F, *OwnDT);
    CachedLoops = &*OwnLI;
  }
  const LoopInfo &LI = *CachedLoops;
  DataflowResult Antic = Ctx.solveAnticipatability();
  ReachScratch Reach;

  // Checks that occur as plain Check instructions inside each loop; a
  // candidate is only worth hoisting when it covers at least one of them.
  // Indexed parallel to loopsInnermostFirst().
  const std::vector<Loop *> &Loops = LI.loopsInnermostFirst();
  std::vector<DenseBitVector> OccursIn;
  OccursIn.reserve(Loops.size());
  for (const Loop *L : Loops) {
    DenseBitVector Bits(U.size());
    for (BlockID B : L->Blocks)
      for (size_t Idx = 0; Idx != F.block(B)->size(); ++Idx) {
        CheckID C = Ctx.idOf(B, Idx);
        if (C != InvalidCheck)
          Bits.set(C);
      }
    OccursIn.push_back(std::move(Bits));
  }

  for (size_t LIdx = 0; LIdx != Loops.size(); ++LIdx) {
    const Loop *L = Loops[LIdx];
    if (L->DoLoopIndex < 0)
      continue; // while loops: no affine entry guard (paper section 3.3)
    const DoLoopInfo &DL = F.doLoops()[static_cast<size_t>(L->DoLoopIndex)];
    DenseBitVector Defined = definedSymbols(F, *L);

    CheckExpr Guard = DL.entryGuard();
    if (Guard.isCompileTimeConstant() && !Guard.evaluatesToTrue())
      continue; // the loop never executes

    bool CanSubstitute =
        Opts.EnableLLS && (DL.Step == 1 || DL.Step == -1) &&
        everyIterationCompletes(F, LI, *L);
    LinearExpr IdxMin = DL.Step > 0 ? DL.LowerBound : DL.UpperBound;
    LinearExpr IdxMax = DL.Step > 0 ? DL.UpperBound : DL.LowerBound;
    LinearExpr HMin = LinearExpr::constant(0);
    LinearExpr HMax; // valid only when CanSubstitute
    if (DL.Step == 1 || DL.Step == -1)
      HMax = DL.lastIterationIndexOffset();
    // Loop-limit substitution of a check that is not loop-invariant: it
    // must be linear in the index or the basic loop variable (not both)
    // and invariant otherwise; that variable becomes its extreme value.
    auto Substitute = [&](const CheckExpr &CE) -> std::optional<CheckExpr> {
      if (!CanSubstitute)
        return std::nullopt;
      int64_t CoeffI = CE.expr().coeff(DL.IndexVar);
      int64_t CoeffH =
          DL.BasicVar != InvalidSymbol ? CE.expr().coeff(DL.BasicVar) : 0;
      if ((CoeffI != 0) == (CoeffH != 0))
        return std::nullopt; // neither, or both
      bool OnIndex = CoeffI != 0;
      SymbolID Var = OnIndex ? DL.IndexVar : DL.BasicVar;
      LinearExpr Rest = CE.expr();
      Rest.removeTerm(Var);
      if (!exprInvariant(Rest, Defined))
        return std::nullopt;
      return CheckExpr(substituteExtreme(CE.expr(), Var,
                                         OnIndex ? CoeffI : CoeffH,
                                         OnIndex ? IdxMin : HMin,
                                         OnIndex ? IdxMax : HMax),
                       CE.bound());
    };

    // Markstein restriction (extension; see PreheaderOptions): checks are
    // candidates only when they occur in an articulation block of the
    // body -- a block without which the body entry can reach neither the
    // latch nor an early exit -- and have a single +-1-coefficient term.
    DenseBitVector MarksteinOK(U.size());
    if (Opts.MarksteinRestriction) {
      for (BlockID B : L->Blocks) {
        if (B == DL.Preheader)
          continue;
        bool Articulation =
            B == DL.BodyEntry ||
            !reachesWithout(F, DL.BodyEntry, B, DL.Latch, Reach);
        if (!Articulation)
          continue;
        for (size_t Idx = 0; Idx != F.block(B)->size(); ++Idx) {
          CheckID C = Ctx.idOf(B, Idx);
          if (C == InvalidCheck)
            continue;
          const auto &Terms = U.check(C).expr().terms();
          bool Simple = Terms.size() == 1 &&
                        (Terms[0].second == 1 || Terms[0].second == -1);
          if (Simple)
            MarksteinOK.set(C);
        }
      }
    }

    // --- first-level candidates from anticipatability -------------------
    // Group candidates by the family of the check that will actually be
    // inserted; the strongest member of each group covers the rest.
    struct Group {
      CheckExpr Inserted; ///< strongest substituted/invariant check so far
      bool Substituted = false;
      CheckOrigin Origin;
      std::vector<CheckExpr> Facts; ///< original checks covered
    };
    std::unordered_map<LinearExpr, Group, LinearExprHash> Groups;

    ConstBitRow AntIn = Antic.In[DL.BodyEntry];
    const DenseBitVector &Occurs = OccursIn[LIdx];
    AntIn.forEachSetBit([&](size_t Bit) {
      CheckID C = static_cast<CheckID>(Bit);
      if (Opts.MarksteinRestriction && !MarksteinOK.test(C))
        return;
      // Profitability: hoisting must cover a check inside the loop.
      DenseBitVector Covered(Ctx.weakerClosure(C));
      Covered &= Occurs;
      if (Covered.none())
        return;

      const CheckExpr &CE = U.check(C);
      CheckExpr Inserted = CE;
      bool DidSubstitute = !exprInvariant(CE.expr(), Defined);
      if (DidSubstitute) {
        // The bound expressions themselves must not use symbols defined in
        // the loop body other than being evaluated at the preheader; they
        // are snapshots by construction (see Lowering), so any symbol is
        // acceptable for the *inserted* check, but for re-hoisting later
        // the invariance test will consult the actual symbols.
        std::optional<CheckExpr> Subst = Substitute(CE);
        if (!Subst)
          return;
        Inserted = *Subst;
      }

      auto &G = Groups[Inserted.expr()];
      if (G.Facts.empty() || Inserted.bound() < G.Inserted.bound()) {
        G.Inserted = Inserted;
        G.Origin = Ctx.representativeOrigin(C);
        G.Substituted = DidSubstitute;
      }
      G.Facts.push_back(CE);
    });

    // --- materialise this loop's insertions ------------------------------
    BasicBlock *PH = F.block(DL.Preheader);
    auto FindPresent = [&](const PlannedCheck &P) -> const Instruction * {
      for (const Instruction &I : PH->instructions()) {
        if (I.Op != Opcode::CondCheck || I.Check != P.Check)
          continue;
        // An existing copy whose guards are a subset of the new guards
        // fires at least as often: the new copy is redundant.
        bool Subset = true;
        for (const CheckExpr &G : I.Guards) {
          bool Found = false;
          for (const CheckExpr &NG : P.Guards)
            if (G == NG)
              Found = true;
          if (!Found) {
            Subset = false;
            break;
          }
        }
        if (Subset)
          return &I;
      }
      return nullptr;
    };

    for (auto &[FamExpr, G] : Groups) {
      (void)FamExpr;
      PlannedCheck P;
      P.Guards = {Guard};
      P.Check = G.Inserted;
      P.Origin = G.Origin;
      CheckTag SourceTag = NoCheckTag;
      if (const Instruction *Existing = FindPresent(P)) {
        SourceTag = Existing->Tag;
      } else {
        Instruction I;
        I.Op = Opcode::CondCheck;
        I.Guards = P.Guards;
        I.Check = P.Check;
        I.Origin = P.Origin;
        I.Tag = F.allocateCheckTag();
        SourceTag = I.Tag;
        PR.record(LifecycleKind::Inserted, LifecyclePass::PreheaderInsertion,
                  F, DL.Preheader, I,
                  G.Substituted ? JustificationId::HoistedSubstituted
                                : JustificationId::HoistedInvariant);
        PH->insertBeforeTerminator(std::move(I));
      }
      for (const CheckExpr &Fact : G.Facts)
        FactsOut.push_back({DL.BodyEntry, Fact, SourceTag});
    }

    // --- re-hoist conditional checks parked in inner preheaders ---------
    // A conditional check in block P inside L moves to L's preheader when
    //  (a) P is executed on every completed iteration of L: the latch is
    //      unreachable from the body entry without passing P, and no early
    //      function exit escapes P;
    //  (b) its guards are invariant in L; and
    //  (c) its check is invariant in L, or (LLS) linear in L's index /
    //      basic variable with invariant rest and substitution is safe.
    for (BlockID B : L->Blocks) {
      if (B == DL.Preheader)
        continue;
      BasicBlock *BB = F.block(B);
      std::vector<size_t> Rehoisted;
      for (size_t Idx = 0; Idx < BB->size(); ++Idx) {
        Instruction &I = BB->instructions()[Idx];
        if (I.Op != Opcode::CondCheck)
          continue;
        // (a) execution guarantee.
        if (reachesWithout(F, DL.BodyEntry, B, DL.Latch, Reach))
          continue;
        // (b) guard invariance.
        bool GuardsInv = true;
        for (const CheckExpr &G : I.Guards)
          if (!exprInvariant(G.expr(), Defined)) {
            GuardsInv = false;
            break;
          }
        if (!GuardsInv)
          continue;
        // (c) check invariance or substitutability.
        CheckExpr Moved = I.Check;
        bool DidSubstitute = !exprInvariant(Moved.expr(), Defined);
        if (DidSubstitute) {
          std::optional<CheckExpr> Subst = Substitute(Moved);
          if (!Subst)
            continue;
          Moved = *Subst;
        }

        PlannedCheck P;
        P.Guards = I.Guards;
        P.Guards.insert(P.Guards.begin(), Guard);
        P.Check = Moved;
        P.Origin = I.Origin;
        Instruction NI;
        NI.Op = Opcode::CondCheck;
        NI.Guards = P.Guards;
        NI.Check = P.Check;
        NI.Origin = P.Origin;
        NI.Tag = I.Tag;

        // Remove from the inner preheader (once the block is scanned) and
        // add to ours.
        Rehoisted.push_back(Idx);
        PR.record(LifecycleKind::Moved, LifecyclePass::PreheaderInsertion, F,
                  DL.Preheader, NI,
                  DidSubstitute ? JustificationId::RehoistedSubstituted
                                : JustificationId::RehoistedInvariant);
        if (const Instruction *MergedInto = FindPresent(P))
          PR.record(LifecycleKind::SubsumedBy,
                    LifecyclePass::PreheaderInsertion, F, DL.Preheader, NI,
                    JustificationId::RehoistMerged, MergedInto->Tag);
        else
          PH->insertBeforeTerminator(std::move(NI));
        // Note: facts recorded when the check was first inserted remain
        // valid -- the moved check still executes before the inner loop's
        // body on every path, with at-least-as-often guards.
      }
      BB->eraseAt(Rehoisted);
    }
  }
}
