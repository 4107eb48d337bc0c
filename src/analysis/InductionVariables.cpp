#include "analysis/InductionVariables.h"

#include <algorithm>

using namespace nascent;

namespace {
constexpr unsigned MaxWalkDepth = 64;

/// Drops zero coefficients and demotes a coefficient-less Linear.
IVExpr normalize(IVExpr E) {
  E.Base.dropZeros();
  if (E.K == IVExpr::Kind::Linear && E.Coeff == 0)
    E.K = IVExpr::Kind::Invariant;
  return E;
}
} // namespace

bool IVBase::add(SSAValueID V, int64_t C) {
  IVTerm *It = std::lower_bound(
      Terms.begin(), Terms.end(), V,
      [](const IVTerm &T, SSAValueID Key) { return T.Value < Key; });
  if (It != Terms.end() && It->Value == V) {
    int64_t Sum = 0;
    if (__builtin_add_overflow(It->Coeff, C, &Sum))
      return false;
    It->Coeff = Sum;
    return true;
  }
  Terms.insert(It, IVTerm{V, C});
  return true;
}

void IVBase::dropZeros() {
  IVTerm *Out = std::remove_if(Terms.begin(), Terms.end(),
                               [](const IVTerm &T) { return T.Coeff == 0; });
  Terms.erase(Out, Terms.end());
}

const char *IVExpr::kindName() const {
  switch (K) {
  case Kind::Unknown:
    return "Unknown";
  case Kind::Invariant:
    return "Invariant";
  case Kind::Linear:
    return "Linear";
  case Kind::Polynomial:
    return "Polynomial";
  }
  return "?";
}

bool InductionAnalysis::definedOutside(SSAValueID V, const Loop *L) const {
  const SSADef &D = S.def(V);
  if (D.K == SSADef::Kind::Entry)
    return true;
  return !L->contains(D.Block);
}

IVExpr IVExpr::add(const IVExpr &A, const IVExpr &B) {
  using Kind = IVExpr::Kind;
  if (A.K == Kind::Unknown || B.K == Kind::Unknown)
    return IVExpr::unknown();
  if (A.K == Kind::Polynomial || B.K == Kind::Polynomial) {
    IVExpr E;
    E.K = Kind::Polynomial;
    E.L = A.L ? A.L : B.L;
    return E;
  }
  IVExpr E;
  E.K = (A.K == Kind::Linear || B.K == Kind::Linear) ? Kind::Linear
                                                     : Kind::Invariant;
  E.L = A.L ? A.L : B.L;
  E.Base = A.Base;
  if (__builtin_add_overflow(A.Coeff, B.Coeff, &E.Coeff) ||
      __builtin_add_overflow(A.BaseConst, B.BaseConst, &E.BaseConst))
    return IVExpr::unknown();
  for (const auto &[V, C] : B.Base)
    if (!E.Base.add(V, C))
      return IVExpr::unknown();
  return normalize(E);
}

IVExpr IVExpr::scale(const IVExpr &A, int64_t Factor) {
  using Kind = IVExpr::Kind;
  if (A.K == Kind::Unknown)
    return IVExpr::unknown();
  if (Factor == 0)
    return IVExpr::constant(0, A.L);
  if (A.K == Kind::Polynomial)
    return A;
  IVExpr E = A;
  if (__builtin_mul_overflow(E.Coeff, Factor, &E.Coeff) ||
      __builtin_mul_overflow(E.BaseConst, Factor, &E.BaseConst))
    return IVExpr::unknown();
  for (auto &[V, C] : E.Base)
    if (__builtin_mul_overflow(C, Factor, &C))
      return IVExpr::unknown();
  return normalize(E);
}

std::optional<int64_t> InductionAnalysis::constantValue(SSAValueID V) {
  ConstState &St = Consts[V];
  if (St.St != ConstState::NotStarted) // a cycle reads "not constant"
    return St.Known ? std::optional<int64_t>(St.Value) : std::nullopt;
  St.St = ConstState::InProgress;

  const SSADef &D = S.def(V);
  std::optional<int64_t> Result;
  if (D.K == SSADef::Kind::Inst) {
    const Instruction &I =
        S.function().block(D.Block)->instructions()[D.InstIdx];
    auto OperandConst = [&](size_t OpIdx) -> std::optional<int64_t> {
      const Value &Op = I.Operands[OpIdx];
      if (Op.isIntConst() || Op.isBoolConst())
        return Op.intValue();
      if (!Op.isSym())
        return std::nullopt;
      SSAValueID UseV = S.useOfSymbol(D.Block, D.InstIdx, Op.symbol());
      if (UseV == InvalidSSAValue)
        return std::nullopt;
      return constantValue(UseV);
    };
    // A result that overflows is what the run wraps to, not the exact
    // value the analysis reasons with: it is no constant.
    int64_t R = 0;
    switch (I.Op) {
    case Opcode::Copy: {
      Result = OperandConst(0);
      break;
    }
    case Opcode::Add:
      if (auto A = OperandConst(0))
        if (auto B = OperandConst(1))
          if (!__builtin_add_overflow(*A, *B, &R))
            Result = R;
      break;
    case Opcode::Sub:
      if (auto A = OperandConst(0))
        if (auto B = OperandConst(1))
          if (!__builtin_sub_overflow(*A, *B, &R))
            Result = R;
      break;
    case Opcode::Mul:
      if (auto A = OperandConst(0))
        if (auto B = OperandConst(1))
          if (!__builtin_mul_overflow(*A, *B, &R))
            Result = R;
      break;
    case Opcode::Neg:
      if (auto A = OperandConst(0))
        if (!__builtin_sub_overflow(int64_t(0), *A, &R))
          Result = R;
      break;
    default:
      break;
    }
  }
  St.St = ConstState::Done; // Consts is sized once: St is still valid
  St.Known = Result.has_value();
  St.Value = Result.value_or(0);
  return Result;
}

IVExpr InductionAnalysis::classify(SSAValueID V, const Loop *L) {
  assert(L && "classification requires a loop");
  size_t Key = static_cast<size_t>(V) * LI.numLoops() + L->Index;
  uint32_t Slot = MemoSlot[Key];
  if (Slot == InProgress)
    return IVExpr::unknown(); // cyclic dependence outside a basic-IV shape
  if (Slot != NotStarted)
    return Memo[Slot];
  MemoSlot[Key] = InProgress;
  IVExpr E = classifyImpl(V, L);
  MemoSlot[Key] = static_cast<uint32_t>(Memo.size());
  Memo.push_back(E);
  return E;
}

IVExpr InductionAnalysis::classifyUse(BlockID B, size_t InstIdx, SymbolID Sym,
                                      const Loop *L) {
  SSAValueID V = S.useOfSymbol(B, InstIdx, Sym);
  if (V == InvalidSSAValue)
    return IVExpr::unknown();
  return classify(V, L);
}

IVExpr InductionAnalysis::classifyOperand(const Value &Op, BlockID B,
                                          size_t InstIdx, const Loop *L) {
  if (Op.isIntConst() || Op.isBoolConst())
    return IVExpr::constant(Op.intValue(), L);
  if (!Op.isSym())
    return IVExpr::unknown();
  SSAValueID V = S.useOfSymbol(B, InstIdx, Op.symbol());
  if (V == InvalidSSAValue)
    return IVExpr::unknown();
  return classify(V, L);
}

IVExpr InductionAnalysis::classifyImpl(SSAValueID V, const Loop *L) {
  const SSADef &D = S.def(V);

  if (definedOutside(V, L)) {
    // Region constant. Fold to a literal when possible so that symbolic
    // steps like "m = 5; ... k = k + m" classify with constant steps, as
    // in the paper's Figure 2.
    if (auto C = constantValue(V))
      return IVExpr::constant(*C, L);
    IVExpr E;
    E.K = IVExpr::Kind::Invariant;
    E.L = L;
    (void)E.Base.add(V, 1);
    return E;
  }

  if (D.K == SSADef::Kind::Phi) {
    if (D.Block != L->Header) {
      // A join phi inside the loop, or an inner-loop header phi: the value
      // varies unpredictably relative to L.
      return IVExpr::unknown();
    }
    // Candidate basic induction variable: phi(init from outside,
    // next from inside) with next = phi + step, step invariant.
    const SSAPhi &P = S.phisIn(D.Block)[D.InstIdx];
    std::span<const SSAValueID> In = S.incoming(P);
    const auto &Preds = S.function().block(D.Block)->preds();
    SSAValueID Init = InvalidSSAValue;
    SSAValueID Next = InvalidSSAValue;
    for (size_t K = 0; K != Preds.size(); ++K) {
      if (L->contains(Preds[K])) {
        if (Next != InvalidSSAValue && Next != In[K])
          return IVExpr::unknown(); // differing values from multiple latches
        Next = In[K];
      } else {
        if (Init != InvalidSSAValue && Init != In[K])
          return IVExpr::unknown();
        Init = In[K];
      }
    }
    if (Init == InvalidSSAValue || Next == InvalidSSAValue)
      return IVExpr::unknown();

    AroundPhi A = affineAroundPhi(Next, V, L, 0);
    if (A.St == AroundPhi::Status::Polynomial) {
      // phi accumulates a linear value: polynomial in h (Figure 2's j).
      IVExpr E;
      E.K = IVExpr::Kind::Polynomial;
      E.L = L;
      return E;
    }
    if (A.St != AroundPhi::Status::Affine || A.CoeffPhi != 1)
      return IVExpr::unknown(); // geometric or irregular recurrence
    if (!A.Rest.isConstant())
      return IVExpr::unknown(); // symbolic step: sign unknown, unusable

    int64_t Step = A.Rest.BaseConst;
    if (Step == 0) {
      // Degenerate: phi = phi each iteration; value is simply Init.
      IVExpr InitE = classify(Init, L);
      return InitE;
    }
    // Value at iteration h (h = 0, 1, ...) is Init + Step*h.
    IVExpr InitE = classify(Init, L);
    if (!InitE.isInvariant())
      return IVExpr::unknown();
    IVExpr E = InitE;
    E.K = IVExpr::Kind::Linear;
    E.L = L;
    E.Coeff = Step;
    return normalize(E);
  }

  // Instruction-defined value inside the loop.
  const Instruction &I =
      S.function().block(D.Block)->instructions()[D.InstIdx];
  auto Cls = [&](size_t OpIdx) {
    return classifyOperand(I.Operands[OpIdx], D.Block, D.InstIdx, L);
  };
  switch (I.Op) {
  case Opcode::Copy:
    return Cls(0);
  case Opcode::Add:
    return IVExpr::add(Cls(0), Cls(1));
  case Opcode::Sub:
    return IVExpr::add(Cls(0), IVExpr::scale(Cls(1), -1));
  case Opcode::Neg:
    return IVExpr::scale(Cls(0), -1);
  case Opcode::Mul: {
    IVExpr A = Cls(0);
    IVExpr B = Cls(1);
    if (A.isConstant())
      return IVExpr::scale(B, A.BaseConst);
    if (B.isConstant())
      return IVExpr::scale(A, B.BaseConst);
    return IVExpr::unknown();
  }
  default:
    return IVExpr::unknown();
  }
}

InductionAnalysis::AroundPhi
InductionAnalysis::affineAroundPhi(SSAValueID V, SSAValueID PhiV,
                                   const Loop *L, unsigned Depth) {
  AroundPhi R;
  if (Depth > MaxWalkDepth)
    return R;
  if (V == PhiV) {
    R.St = AroundPhi::Status::Affine;
    R.CoeffPhi = 1;
    R.Rest = IVExpr::constant(0, L);
    return R;
  }
  if (definedOutside(V, L)) {
    R.St = AroundPhi::Status::Affine;
    R.CoeffPhi = 0;
    if (auto C = constantValue(V)) {
      R.Rest = IVExpr::constant(*C, L);
    } else {
      R.Rest = IVExpr();
      R.Rest.K = IVExpr::Kind::Invariant;
      R.Rest.L = L;
      (void)R.Rest.Base.add(V, 1);
    }
    return R;
  }

  const SSADef &D = S.def(V);
  if (D.K == SSADef::Kind::Phi) {
    // Another in-loop phi. If it classifies as linear, the candidate phi
    // accumulates a linear sequence: a polynomial (Figure 2's j = j + i).
    IVExpr C = classify(V, L);
    if (C.isInvariant()) {
      R.St = AroundPhi::Status::Affine;
      R.CoeffPhi = 0;
      R.Rest = C;
      return R;
    }
    if (C.isLinear() || C.K == IVExpr::Kind::Polynomial) {
      R.St = AroundPhi::Status::Polynomial;
      return R;
    }
    return R; // Unknown
  }

  const Instruction &I =
      S.function().block(D.Block)->instructions()[D.InstIdx];
  auto Walk = [&](size_t OpIdx) {
    return affineAroundPhiOperand(I.Operands[OpIdx], D.Block, D.InstIdx, PhiV,
                                  L, Depth + 1);
  };
  auto Combine = [&](const AroundPhi &A, const AroundPhi &B,
                     int64_t SignB) -> AroundPhi {
    AroundPhi Out;
    if (A.St == AroundPhi::Status::Polynomial ||
        B.St == AroundPhi::Status::Polynomial) {
      Out.St = AroundPhi::Status::Polynomial;
      return Out;
    }
    if (A.St != AroundPhi::Status::Affine ||
        B.St != AroundPhi::Status::Affine)
      return Out; // Unknown
    int64_t Signed = 0;
    if (__builtin_mul_overflow(SignB, B.CoeffPhi, &Signed) ||
        __builtin_add_overflow(A.CoeffPhi, Signed, &Out.CoeffPhi))
      return Out; // Unknown
    Out.Rest = IVExpr::add(A.Rest, IVExpr::scale(B.Rest, SignB));
    if (Out.Rest.K == IVExpr::Kind::Unknown)
      return Out;
    Out.St = AroundPhi::Status::Affine;
    return Out;
  };

  switch (I.Op) {
  case Opcode::Copy:
    return Walk(0);
  case Opcode::Add:
    return Combine(Walk(0), Walk(1), 1);
  case Opcode::Sub:
    return Combine(Walk(0), Walk(1), -1);
  case Opcode::Neg: {
    AroundPhi A = Walk(0);
    if (A.St == AroundPhi::Status::Affine) {
      A.Rest = IVExpr::scale(A.Rest, -1);
      if (__builtin_sub_overflow(int64_t(0), A.CoeffPhi, &A.CoeffPhi) ||
          A.Rest.K == IVExpr::Kind::Unknown)
        return R;
    }
    return A;
  }
  case Opcode::Mul: {
    AroundPhi A = Walk(0);
    AroundPhi B = Walk(1);
    if (A.St != AroundPhi::Status::Affine ||
        B.St != AroundPhi::Status::Affine)
      return R;
    // Only constant scaling keeps the recurrence affine in the phi; a
    // product that overflows ends the walk instead of wrapping.
    auto ScaleBy = [&R](AroundPhi X, int64_t Factor) {
      X.Rest = IVExpr::scale(X.Rest, Factor);
      if (__builtin_mul_overflow(X.CoeffPhi, Factor, &X.CoeffPhi) ||
          X.Rest.K == IVExpr::Kind::Unknown)
        return R;
      return X;
    };
    if (A.CoeffPhi == 0 && A.Rest.isConstant())
      return ScaleBy(B, A.Rest.BaseConst);
    if (B.CoeffPhi == 0 && B.Rest.isConstant())
      return ScaleBy(A, B.Rest.BaseConst);
    return R;
  }
  default: {
    // Any other defining instruction ends the affine walk; if the value is
    // loop-invariant by classification it still contributes to the step.
    IVExpr C = classify(V, L);
    if (C.isInvariant()) {
      R.St = AroundPhi::Status::Affine;
      R.CoeffPhi = 0;
      R.Rest = C;
      return R;
    }
    if (C.isLinear() || C.K == IVExpr::Kind::Polynomial)
      R.St = AroundPhi::Status::Polynomial;
    return R;
  }
  }
}

InductionAnalysis::AroundPhi InductionAnalysis::affineAroundPhiOperand(
    const Value &Op, BlockID B, size_t InstIdx, SSAValueID PhiV, const Loop *L,
    unsigned Depth) {
  AroundPhi R;
  if (Op.isIntConst() || Op.isBoolConst()) {
    R.St = AroundPhi::Status::Affine;
    R.CoeffPhi = 0;
    R.Rest = IVExpr::constant(Op.intValue(), L);
    return R;
  }
  if (!Op.isSym())
    return R;
  SSAValueID V = S.useOfSymbol(B, InstIdx, Op.symbol());
  if (V == InvalidSSAValue)
    return R;
  return affineAroundPhi(V, PhiV, L, Depth);
}

bool InductionAnalysis::isBasicIV(SSAValueID PhiValue, const Loop *L,
                                  int64_t &Step) {
  IVExpr E = classify(PhiValue, L);
  const SSADef &D = S.def(PhiValue);
  if (!E.isLinear() || D.K != SSADef::Kind::Phi || D.Block != L->Header)
    return false;
  Step = E.Coeff;
  return true;
}
