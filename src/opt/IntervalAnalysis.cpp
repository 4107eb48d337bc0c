#include "opt/IntervalAnalysis.h"

#include "analysis/CFGUtils.h"
#include "analysis/Dominators.h"
#include "analysis/LoopInfo.h"

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

/// The per-program-point abstract state: one interval per integer scalar.
using State = std::vector<Interval>;

class IntervalSolver {
public:
  explicit IntervalSolver(const Function &F) : F(F) {
    NumSyms = F.symbols().size();
  }

  void solve() {
    std::vector<BlockID> RPO = reversePostOrder(F);
    In.assign(F.numBlocks(), State());
    Out.assign(F.numBlocks(), State());
    Visits.assign(F.numBlocks(), 0);

    // Entry state: parameters unknown, everything else starts at zero
    // (mini-Fortran zero-initialises; see docs/LANGUAGE.md).
    State Entry(NumSyms, Interval::constant(0));
    for (SymbolID P : F.params())
      if (!F.symbols().get(P).isArray())
        Entry[P] = Interval::top();

    // One scratch pair for every block visit: a changed block swaps its
    // new states in (and the scratch takes the old ones' storage), so a
    // visit copies into existing capacity instead of allocating.
    State NewIn, NewOut;
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
            if (Out[P].empty())
              continue; // unprocessed predecessor: skip this round
            if (First) {
              NewIn = Out[P];
              First = false;
            } else {
              for (size_t S = 0; S != NumSyms; ++S)
                NewIn[S] = NewIn[S].hull(Out[P][S]);
            }
          }
          if (First)
            continue; // no processed predecessor yet
        }
        // Widen after a few visits so loop-carried updates terminate.
        if (!In[B].empty() && ++Visits[B] > 3) {
          for (size_t S = 0; S != NumSyms; ++S) {
            if (NewIn[S].Lo < In[B][S].Lo)
              NewIn[S].Lo = Interval::NegInf;
            if (NewIn[S].Hi > In[B][S].Hi)
              NewIn[S].Hi = Interval::PosInf;
          }
        }
        NewOut = NewIn;
        for (const Instruction &I : F.block(B)->instructions())
          transfer(I, NewOut);
        if (NewIn != In[B] || NewOut != Out[B]) {
          std::swap(In[B], NewIn);
          std::swap(Out[B], NewOut);
          Changed = true;
        }
      }
    }
  }

  /// Interval of \p V under state \p S.
  Interval valueOf(const Value &V, const State &S) const {
    if (V.isIntConst() || V.isBoolConst())
      return Interval::constant(V.intValue());
    if (V.isSym()) {
      const Symbol &Sym = F.symbols().get(V.symbol());
      if (!Sym.isArray() && Sym.Type != ScalarType::Real)
        return S[V.symbol()];
    }
    return Interval::top();
  }

  void transfer(const Instruction &I, State &S) const {
    if (I.Dest == InvalidSymbol)
      return;
    const Symbol &D = F.symbols().get(I.Dest);
    if (D.isArray() || D.Type == ScalarType::Real)
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
    S[I.Dest] = R;
  }

  const Function &F;
  size_t NumSyms = 0;
  std::vector<State> In, Out;
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
      if (DL.IndexVar != Sym || Solver.Out[DL.Preheader].empty())
        continue;
      const State &PH = Solver.Out[DL.Preheader];
      auto EvalLin = [&](const LinearExpr &E) {
        Interval R = Interval::constant(E.constantPart());
        for (const auto &[S, Coef] : E.terms())
          R = R.add(PH[S].mulConst(Coef));
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
  State S; // reused by every block
  for (const auto &BB : F) {
    BlockID B = BB->id();
    C.PerInst[B].assign(BB->size(), IntervalVerdict::NotACheck);
    if (Solver.In[B].empty())
      continue; // unreachable
    S = Solver.In[B];
    for (size_t Idx = 0; Idx != BB->size(); ++Idx) {
      const Instruction &I = BB->instructions()[Idx];
      if (I.Op != Opcode::Check) {
        Solver.transfer(I, S);
        continue;
      }
      // Evaluate the range-expression's interval at this point.
      Interval E = Interval::constant(0);
      for (const auto &[Sym, Coeff] : I.Check.expr().terms()) {
        Interval V = S[Sym];
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
