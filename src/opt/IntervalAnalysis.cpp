#include "opt/IntervalAnalysis.h"

#include "analysis/CFGUtils.h"
#include "analysis/Dominators.h"
#include "analysis/LoopInfo.h"

#include <algorithm>
#include <optional>
#include <vector>

using namespace nascent;

int64_t Interval::satAdd(int64_t A, int64_t B) {
  if (A == NegInf || B == NegInf)
    return NegInf;
  if (A == PosInf || B == PosInf)
    return PosInf;
  __int128 R = static_cast<__int128>(A) + B;
  if (R <= NegInf)
    return NegInf;
  if (R >= PosInf)
    return PosInf;
  return static_cast<int64_t>(R);
}

int64_t Interval::satMul(int64_t A, int64_t B) {
  if (A == 0 || B == 0)
    return 0;
  bool AInf = A == NegInf || A == PosInf;
  bool BInf = B == NegInf || B == PosInf;
  if (AInf || BInf) {
    bool Neg = (A < 0) != (B < 0);
    return Neg ? NegInf : PosInf;
  }
  __int128 R = static_cast<__int128>(A) * B;
  if (R <= NegInf)
    return NegInf;
  if (R >= PosInf)
    return PosInf;
  return static_cast<int64_t>(R);
}

Interval Interval::add(const Interval &O) const {
  return {satAdd(Lo, O.Lo), satAdd(Hi, O.Hi)};
}

Interval Interval::sub(const Interval &O) const {
  return add(O.negate());
}

Interval Interval::negate() const {
  auto Neg = [](int64_t V) {
    if (V == NegInf)
      return PosInf;
    if (V == PosInf)
      return NegInf;
    return -V;
  };
  return {Neg(Hi), Neg(Lo)};
}

Interval Interval::mulConst(int64_t C) const {
  if (C == 0)
    return constant(0);
  int64_t A = satMul(Lo, C);
  int64_t B = satMul(Hi, C);
  return C > 0 ? Interval{A, B} : Interval{B, A};
}

Interval Interval::minWith(const Interval &O) const {
  return {Lo < O.Lo ? Lo : O.Lo, Hi < O.Hi ? Hi : O.Hi};
}

Interval Interval::maxWith(const Interval &O) const {
  return {Lo > O.Lo ? Lo : O.Lo, Hi > O.Hi ? Hi : O.Hi};
}

Interval Interval::absValue() const {
  if (Lo >= 0)
    return *this;
  if (Hi <= 0)
    return negate();
  Interval N = negate();
  int64_t M = Hi > N.Hi ? Hi : N.Hi;
  return {0, M};
}

namespace {

/// The per-program-point abstract state: one interval per tracked symbol.
using State = std::vector<Interval>;

/// The value-range fixpoint over one function. Only the symbols transfer
/// can write -- integer and bool scalars -- get a slot in a state; a real
/// or array symbol keeps its entry interval at every point (no
/// instruction assigns it an interval, and valueOf reads it as top), so
/// leaving it out changes no hull, widening or comparison. The states of
/// all blocks sit in two flat tables, one row per block.
class IntervalSolver {
public:
  explicit IntervalSolver(const Function &F) : F(F) {
    const SymbolTable &Syms = F.symbols();
    Slot.assign(Syms.size(), UntrackedZero);
    for (SymbolID S = 0; S != Syms.size(); ++S)
      if (tracked(Syms.get(S)))
        Slot[S] = static_cast<uint32_t>(NumSlots++);
    for (SymbolID P : F.params())
      if (Slot[P] == UntrackedZero && !Syms.get(P).isArray())
        Slot[P] = UntrackedTop; // a real parameter: unknown throughout
    // Per block, the instructions that write a slot: transfer leaves a
    // state unchanged on every other one, so block visits skip them.
    WriterStart.reserve(F.numBlocks() + 1);
    for (const auto &BB : F) {
      WriterStart.push_back(static_cast<uint32_t>(Writers.size()));
      for (const Instruction &I : BB->instructions())
        if (I.Dest != InvalidSymbol && isTracked(I.Dest))
          Writers.push_back(&I);
    }
    WriterStart.push_back(static_cast<uint32_t>(Writers.size()));
  }

  void solve() {
    std::vector<BlockID> RPO = reversePostOrder(F);
    In.assign(F.numBlocks() * NumSlots, Interval());
    Out.assign(F.numBlocks() * NumSlots, Interval());
    Reached.assign(F.numBlocks(), 0);
    Visits.assign(F.numBlocks(), 0);

    // Entry state: parameters unknown, everything else starts at zero
    // (mini-Fortran zero-initialises; see docs/LANGUAGE.md).
    State Entry(NumSlots, Interval::constant(0));
    for (SymbolID P : F.params())
      if (isTracked(P))
        Entry[Slot[P]] = Interval::top();

    // One scratch pair for every block visit, copied into a block's rows
    // when the visit changed them.
    State NewIn(NumSlots), NewOut(NumSlots);
    bool Changed = true;
    unsigned Rounds = 0;
    while (Changed && Rounds++ < 64) {
      Changed = false;
      for (BlockID B : RPO) {
        if (B == F.entryBlock()) {
          NewIn = Entry;
        } else {
          bool First = true;
          for (BlockID P : F.block(B)->preds()) {
            if (!Reached[P])
              continue; // unprocessed predecessor: skip this round
            const Interval *PO = out(P);
            if (First) {
              std::copy(PO, PO + NumSlots, NewIn.begin());
              First = false;
            } else {
              for (size_t S = 0; S != NumSlots; ++S)
                NewIn[S] = NewIn[S].hull(PO[S]);
            }
          }
          if (First)
            continue; // no processed predecessor yet
        }
        Interval *BI = row(In, B), *BO = row(Out, B);
        // Widen after a few visits so loop-carried updates terminate.
        if (Reached[B] && ++Visits[B] > 3) {
          for (size_t S = 0; S != NumSlots; ++S) {
            if (NewIn[S].Lo < BI[S].Lo)
              NewIn[S].Lo = Interval::NegInf;
            if (NewIn[S].Hi > BI[S].Hi)
              NewIn[S].Hi = Interval::PosInf;
          }
        }
        NewOut = NewIn;
        for (uint32_t K = WriterStart[B]; K != WriterStart[B + 1]; ++K)
          transfer(*Writers[K], NewOut.data());
        if (!Reached[B] || !std::equal(NewIn.begin(), NewIn.end(), BI) ||
            !std::equal(NewOut.begin(), NewOut.end(), BO)) {
          std::copy(NewIn.begin(), NewIn.end(), BI);
          std::copy(NewOut.begin(), NewOut.end(), BO);
          Reached[B] = 1;
          Changed = true;
        }
      }
    }
  }

  /// True once \p B's states exist (false for unreachable blocks).
  bool reached(BlockID B) const { return Reached[B]; }
  size_t numSlots() const { return NumSlots; }
  const Interval *in(BlockID B) const { return In.data() + B * NumSlots; }
  const Interval *out(BlockID B) const { return Out.data() + B * NumSlots; }

  /// Interval of symbol \p Sym under state \p S: its slot, or the entry
  /// interval an untracked symbol keeps everywhere.
  Interval symbolValue(SymbolID Sym, const Interval *S) const {
    if (isTracked(Sym))
      return S[Slot[Sym]];
    return Slot[Sym] == UntrackedTop ? Interval::top() : Interval::constant(0);
  }

  /// Interval of \p V under state \p S.
  Interval valueOf(const Value &V, const Interval *S) const {
    if (V.isIntConst() || V.isBoolConst())
      return Interval::constant(V.intValue());
    if (V.isSym() && isTracked(V.symbol()))
      return S[Slot[V.symbol()]];
    return Interval::top();
  }

  void transfer(const Instruction &I, Interval *S) const {
    if (I.Dest == InvalidSymbol || !isTracked(I.Dest))
      return;
    Interval R = Interval::top();
    switch (I.Op) {
    case Opcode::Copy:
      R = valueOf(I.Operands[0], S);
      break;
    case Opcode::Add:
      R = valueOf(I.Operands[0], S).add(valueOf(I.Operands[1], S));
      break;
    case Opcode::Sub:
      R = valueOf(I.Operands[0], S).sub(valueOf(I.Operands[1], S));
      break;
    case Opcode::Neg:
      R = valueOf(I.Operands[0], S).negate();
      break;
    case Opcode::Mul: {
      Interval A = valueOf(I.Operands[0], S);
      Interval B = valueOf(I.Operands[1], S);
      if (A.Lo == A.Hi)
        R = B.mulConst(A.Lo);
      else if (B.Lo == B.Hi)
        R = A.mulConst(B.Lo);
      break;
    }
    case Opcode::Min:
      R = valueOf(I.Operands[0], S).minWith(valueOf(I.Operands[1], S));
      break;
    case Opcode::Max:
      R = valueOf(I.Operands[0], S).maxWith(valueOf(I.Operands[1], S));
      break;
    case Opcode::Abs:
      R = valueOf(I.Operands[0], S).absValue();
      break;
    case Opcode::Mod: {
      // mod(x, c): result magnitude below |c|; nonnegative when x >= 0.
      Interval B = valueOf(I.Operands[1], S);
      if (B.Lo == B.Hi && B.Lo != 0) {
        int64_t C = B.Lo < 0 ? -B.Lo : B.Lo;
        Interval A = valueOf(I.Operands[0], S);
        R = (A.Lo >= 0) ? Interval{0, C - 1} : Interval{-(C - 1), C - 1};
      }
      break;
    }
    case Opcode::CmpEQ:
    case Opcode::CmpNE:
    case Opcode::CmpLT:
    case Opcode::CmpLE:
    case Opcode::CmpGT:
    case Opcode::CmpGE:
    case Opcode::And:
    case Opcode::Or:
    case Opcode::Not:
      R = Interval{0, 1};
      break;
    default:
      break; // Load, Call, RealToInt, ...: unknown
    }
    S[Slot[I.Dest]] = R;
  }

private:
  /// Slot markers of the untracked symbols, by their entry interval.
  static constexpr uint32_t UntrackedZero = ~uint32_t(0);
  static constexpr uint32_t UntrackedTop = ~uint32_t(0) - 1;

  /// The symbols transfer can assign an interval to.
  static bool tracked(const Symbol &S) {
    return !S.isArray() && S.Type != ScalarType::Real;
  }
  bool isTracked(SymbolID Sym) const { return Slot[Sym] < NumSlots; }

  Interval *row(std::vector<Interval> &Table, BlockID B) {
    return Table.data() + B * NumSlots;
  }

  const Function &F;
  std::vector<uint32_t> Slot; ///< symbol -> state slot, or an Untracked*
  size_t NumSlots = 0;
  std::vector<const Instruction *> Writers; ///< slot writers, block by block
  std::vector<uint32_t> WriterStart;        ///< block -> first writer
  std::vector<Interval> In, Out; ///< NumSlots intervals per block
  std::vector<uint8_t> Reached;
  std::vector<unsigned> Visits;
};

} // namespace

IntervalCheckClassification
nascent::classifyChecksByIntervals(const Function &F,
                                   const LoopInfo *CachedLoops) {
  IntervalCheckClassification C;
  IntervalSolver Solver(F);
  Solver.solve();

  // Loop-index refinement: inside loop L the do index lies within the
  // hull of its bound intervals at the preheader (for either step sign).
  std::optional<DominatorTree> OwnDT;
  std::optional<LoopInfo> OwnLI;
  if (!CachedLoops) {
    OwnDT.emplace(F);
    OwnLI.emplace(F, *OwnDT);
    CachedLoops = &*OwnLI;
  }
  const LoopInfo &LI = *CachedLoops;
  auto RefinedIndex = [&](BlockID B, SymbolID Sym) -> Interval {
    for (const Loop *L = LI.loopFor(B); L; L = L->Parent) {
      if (L->DoLoopIndex < 0)
        continue;
      const DoLoopInfo &DL = F.doLoops()[static_cast<size_t>(L->DoLoopIndex)];
      if (DL.IndexVar != Sym || !Solver.reached(DL.Preheader))
        continue;
      const Interval *PH = Solver.out(DL.Preheader);
      auto EvalLin = [&](const LinearExpr &E) {
        Interval R = Interval::constant(E.constantPart());
        for (const auto &[S, Coef] : E.terms())
          R = R.add(Solver.symbolValue(S, PH).mulConst(Coef));
        return R;
      };
      Interval Lo = EvalLin(DL.LowerBound);
      Interval Hi = EvalLin(DL.UpperBound);
      // For step > 0 the index stays in [lo, hi] inside the body; for
      // step < 0 in [hi, lo]. Use the hull to cover both.
      return Interval{Lo.Lo < Hi.Lo ? Lo.Lo : Hi.Lo,
                      Lo.Hi > Hi.Hi ? Lo.Hi : Hi.Hi};
    }
    return Interval::top();
  };

  C.PerInst.resize(F.numBlocks());
  State S(Solver.numSlots()); // reused by every block
  for (const auto &BB : F) {
    BlockID B = BB->id();
    C.PerInst[B].assign(BB->size(), IntervalVerdict::NotACheck);
    if (!Solver.reached(B))
      continue; // unreachable
    std::copy(Solver.in(B), Solver.in(B) + S.size(), S.begin());
    for (size_t Idx = 0; Idx != BB->size(); ++Idx) {
      const Instruction &I = BB->instructions()[Idx];
      if (I.Op != Opcode::Check) {
        Solver.transfer(I, S.data());
        continue;
      }
      // Evaluate the range-expression's interval at this point.
      Interval E = Interval::constant(0);
      for (const auto &[Sym, Coeff] : I.Check.expr().terms()) {
        Interval V = Solver.symbolValue(Sym, S.data());
        Interval Refined = RefinedIndex(B, Sym);
        // Intersect (both are sound over-approximations).
        Interval Tight{V.Lo > Refined.Lo ? V.Lo : Refined.Lo,
                       V.Hi < Refined.Hi ? V.Hi : Refined.Hi};
        E = E.add(Tight.mulConst(Coeff));
      }
      if (E.boundedAbove() && E.Hi <= I.Check.bound())
        C.PerInst[B][Idx] = IntervalVerdict::AlwaysPasses;
      else if (E.boundedBelow() && E.Lo > I.Check.bound())
        C.PerInst[B][Idx] = IntervalVerdict::AlwaysFails;
      else
        C.PerInst[B][Idx] = IntervalVerdict::Unknown;
    }
  }
  return C;
}

IntervalStats nascent::eliminateChecksByIntervals(Function &F,
                                                  DiagnosticEngine &Diags,
                                                  obs::ProvenanceRecorder &PR,
                                                  const LoopInfo *CachedLoops) {
  using obs::JustificationId;
  using obs::LifecycleKind;
  using obs::LifecyclePass;
  IntervalStats Stats;
  F.recomputePreds();
  IntervalCheckClassification C = classifyChecksByIntervals(F, CachedLoops);

  std::vector<size_t> ToErase;
  for (auto &BB : F) {
    BlockID B = BB->id();
    auto &Insts = BB->instructions();
    ToErase.clear();
    for (size_t Idx = 0, E = Insts.size(); Idx != E; ++Idx) {
      switch (C.at(B, Idx)) {
      case IntervalVerdict::AlwaysPasses: {
        PR.record(LifecycleKind::Eliminated, LifecyclePass::IntervalAnalysis,
                  F, B, Insts[Idx], JustificationId::IntervalPasses);
        ToErase.push_back(Idx);
        continue;
      }
      case IntervalVerdict::AlwaysFails: {
        const Instruction &I = Insts[Idx];
        Diags.warning(I.Origin.Loc,
                      "array range violation proved by value-range "
                      "analysis" +
                          (I.Origin.ArrayName.empty()
                               ? std::string()
                               : " (array " + I.Origin.ArrayName + ")"));
        PR.record(LifecycleKind::Trapped, LifecyclePass::IntervalAnalysis, F,
                  B, I, JustificationId::IntervalFails);
        // Checks in the truncated tail close under Unreachable, as in
        // foldCompileTimeChecks.
        for (size_t T = Idx + 1; T < Insts.size(); ++T)
          if (Insts[T].isRangeCheck() && Insts[T].Tag != NoCheckTag)
            PR.record(LifecycleKind::Eliminated, LifecyclePass::Unreachable,
                      F, B, Insts[T], JustificationId::TruncatedByTrap);
        Instruction Trap;
        Trap.Op = Opcode::Trap;
        Trap.Origin = I.Origin;
        Trap.Tag = I.Tag;
        Insts.resize(Idx);
        Insts.push_back(std::move(Trap));
        break;
      }
      case IntervalVerdict::Unknown:
        ++Stats.ChecksUnknown;
        continue;
      case IntervalVerdict::NotACheck:
        continue;
      }
      break; // block truncated at a proved violation
    }
    BB->eraseAt(ToErase);
  }
  F.recomputePreds();
  return Stats;
}
