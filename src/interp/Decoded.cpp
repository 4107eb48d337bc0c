#include "interp/Decoded.h"

#include "obs/Profile.h"

#include <cassert>
#include <cstring>
#include <map>
#include <new>
#include <optional>
#include <unordered_map>

using namespace nascent;

std::vector<DimLayout> nascent::layoutOf(const ArrayShape &S) {
  std::vector<DimLayout> Dims;
  size_t Stride = 1;
  for (const ArrayDim &D : S.Dims) {
    Dims.push_back({D.Lower, D.Upper, Stride});
    Stride *= static_cast<size_t>(D.extent());
  }
  return Dims;
}

namespace {

/// The int64 values x of one closed interval [Lo, Hi].
struct CheckInterval {
  int64_t Lo = 0;
  int64_t Hi = 0;
};

/// The int64 values x for which the one-term check  Coeff * x <= Bound
/// holds, the product taken exactly (see holds()); std::nullopt when no x
/// does, as for -x <= INT64_MIN.
std::optional<CheckInterval> oneTermInterval(int64_t Coeff, int64_t Bound) {
  using I128 = __int128;
  auto FloorDiv = [](I128 A, I128 B) {
    I128 Q = A / B;
    return A % B != 0 && (A < 0) != (B < 0) ? Q - 1 : Q;
  };
  const I128 Min = std::numeric_limits<int64_t>::min();
  const I128 Max = std::numeric_limits<int64_t>::max();
  I128 Lo = Min, Hi = Max;
  if (Coeff > 0)
    Hi = FloorDiv(Bound, Coeff); // in [Min, Max] for Coeff >= 1
  else if (Coeff < 0)
    Lo = -FloorDiv(Bound, -I128(Coeff)); // ceil(Bound / Coeff), <= Max + 1
  else if (Bound < 0)
    return std::nullopt;
  if (Lo > Max)
    return std::nullopt;
  return CheckInterval{static_cast<int64_t>(Lo), static_cast<int64_t>(Hi)};
}

/// The decoded form of each function of a module.
using FunctionIndex =
    std::unordered_map<const Function *, const DecodedFunction *>;

/// Decodes the functions of one module.
class Decoder {
public:
  Decoder(const Module &M, const FunctionIndex &Index) : M(M), Index(Index) {}

  void decode(DecodedFunction &DF);

private:
  static bool isRealValue(const SymbolTable &Syms, const Value &V) {
    if (V.isSym())
      return Syms.get(V.symbol()).Type == ScalarType::Real;
    return V.isRealConst();
  }

  Operand operand(DecodedFunction &DF, const Value &V) {
    const SymbolTable &Syms = DF.F->symbols();
    if (V.isSym())
      return {V.symbol(), Syms.get(V.symbol()).Type == ScalarType::Real};
    // A constant reads as its integer (0 for a real constant) or as its
    // real value; both members are preset.
    Cell C;
    if (V.isRealConst()) {
      C.R = V.realValue();
    } else if (V.isIntConst() || V.isBoolConst()) {
      C.I = V.intValue();
      C.R = static_cast<double>(C.I);
    }
    uint64_t RBits = 0;
    std::memcpy(&RBits, &C.R, sizeof RBits);
    auto [It, New] = Constants.try_emplace(
        {C.I, RBits}, static_cast<uint32_t>(DF.InitialCells.size()));
    if (New)
      DF.InitialCells.push_back(C);
    return {It->second, true};
  }

  DecodedCheck check(DecodedFunction &DF, const CheckExpr &C) {
    assert(C.expr().constantPart() == 0 && "check constant not folded");
    DecodedCheck D;
    D.Begin = static_cast<uint32_t>(DF.Terms.size());
    for (const auto &[Sym, Coeff] : C.expr().terms())
      DF.Terms.push_back({Sym, Coeff});
    D.End = static_cast<uint32_t>(DF.Terms.size());
    D.Bound = C.bound();
    return D;
  }

  static Op offset(Op First, Opcode Base, Opcode O) {
    return static_cast<Op>(static_cast<unsigned>(First) +
                           (static_cast<unsigned>(O) -
                            static_cast<unsigned>(Base)));
  }

  DecodedOp decodeOp(DecodedFunction &DF, const Instruction &I);
  /// Fuses adjacent CheckIn pairs from Ops[First] to the end.
  static void fuse(DecodedFunction &DF, size_t First);

  const Module &M;
  const FunctionIndex &Index;
  /// Constant cells of the function being decoded, keyed by their bits.
  std::map<std::pair<int64_t, uint64_t>, uint32_t> Constants;
};

DecodedOp Decoder::decodeOp(DecodedFunction &DF, const Instruction &I) {
  const Function &F = *DF.F;
  const SymbolTable &Syms = F.symbols();
  auto DestIsReal = [&] { return Syms.get(I.Dest).Type == ScalarType::Real; };
  DecodedOp D;
  D.Src = &I;
  if (I.Dest != InvalidSymbol)
    D.Dest = I.Dest;
  switch (I.Op) {
  case Opcode::Add:
  case Opcode::Sub:
  case Opcode::Mul:
  case Opcode::Div:
  case Opcode::Mod:
  case Opcode::Min:
  case Opcode::Max:
    D.B = operand(DF, I.Operands[1]);
    [[fallthrough]];
  case Opcode::Neg:
  case Opcode::Abs:
    D.Code = offset(DestIsReal() ? Op::AddR : Op::AddI, Opcode::Add, I.Op);
    D.A = operand(DF, I.Operands[0]);
    break;
  case Opcode::CmpEQ:
  case Opcode::CmpNE:
  case Opcode::CmpLT:
  case Opcode::CmpLE:
  case Opcode::CmpGT:
  case Opcode::CmpGE: {
    bool Real = isRealValue(Syms, I.Operands[0]) ||
                isRealValue(Syms, I.Operands[1]);
    D.Code = offset(Real ? Op::EqR : Op::EqI, Opcode::CmpEQ, I.Op);
    D.A = operand(DF, I.Operands[0]);
    D.B = operand(DF, I.Operands[1]);
    break;
  }
  case Opcode::And:
  case Opcode::Or:
    D.Code = I.Op == Opcode::And ? Op::And : Op::Or;
    D.A = operand(DF, I.Operands[0]);
    D.B = operand(DF, I.Operands[1]);
    break;
  case Opcode::Not:
  case Opcode::IntToReal:
  case Opcode::RealToInt:
  case Opcode::Copy:
    D.Code = I.Op == Opcode::Not         ? Op::Not
             : I.Op == Opcode::IntToReal ? Op::IntToReal
             : I.Op == Opcode::RealToInt ? Op::RealToInt
             : DestIsReal()              ? Op::CopyR
                                         : Op::CopyI;
    D.A = operand(DF, I.Operands[0]);
    break;
  case Opcode::Load:
  case Opcode::Store:
    D.Code = I.Op == Opcode::Load ? Op::Load : Op::Store;
    D.Steps = accessSteps(I.Indices.size());
    D.Array = I.Array;
    D.Begin = static_cast<uint32_t>(DF.Subscripts.size());
    for (const Value &V : I.Indices)
      DF.Subscripts.push_back(operand(DF, V));
    D.End = static_cast<uint32_t>(DF.Subscripts.size());
    if (I.Op == Opcode::Store)
      D.A = operand(DF, I.Operands[0]);
    break;
  case Opcode::Check:
  case Opcode::CondCheck:
    D.Code = I.Op == Opcode::Check ? Op::Check : Op::CondCheck;
    if (I.Op == Opcode::Check && I.Check.expr().terms().size() == 1) {
      auto [Sym, Coeff] = I.Check.expr().terms().front();
      // An empty interval stays on the term loop, which never holds.
      if (std::optional<CheckInterval> In =
              oneTermInterval(Coeff, I.Check.bound())) {
        D.Code = Op::CheckIn;
        D.A.Slot = Sym;
        D.Lo = In->Lo;
        D.Span = static_cast<uint64_t>(In->Hi) - static_cast<uint64_t>(In->Lo);
        break;
      }
    }
    D.Check = check(DF, I.Check);
    D.Begin = static_cast<uint32_t>(DF.Guards.size());
    for (const CheckExpr &G : I.Guards)
      DF.Guards.push_back(check(DF, G));
    D.End = static_cast<uint32_t>(DF.Guards.size());
    break;
  case Opcode::Trap:
    D.Code = Op::Trap;
    break;
  case Opcode::Br:
    D.Code = Op::Br;
    D.A = operand(DF, I.Operands[0]);
    D.TrueBlock = I.TrueTarget;
    D.FalseBlock = I.FalseTarget;
    break;
  case Opcode::Jump:
    D.Code = Op::Jump;
    D.TrueBlock = I.TrueTarget;
    break;
  case Opcode::Ret:
    if (I.Operands.empty()) {
      D.Code = Op::Ret;
    } else {
      D.Code = F.resultType() == ScalarType::Real ? Op::RetR : Op::RetI;
      D.A = operand(DF, I.Operands[0]);
    }
    break;
  case Opcode::Call: {
    D.Code = I.Dest == InvalidSymbol ? Op::Call
             : DestIsReal()          ? Op::CallR
                                     : Op::CallI;
    const Function *Callee = M.function(I.Callee);
    if (!Callee)
      break;
    D.Callee = Index.at(Callee);
    // Scalars pass by value (with conversion), arrays by reference.
    D.Begin = static_cast<uint32_t>(DF.Args.size());
    for (size_t K = 0; K != I.Operands.size(); ++K) {
      Argument Arg;
      Arg.Param = Callee->params()[K];
      const Symbol &PS = Callee->symbols().get(Arg.Param);
      if (PS.isArray()) {
        Arg.K = Argument::Kind::Array;
        Arg.From.Slot = I.Operands[K].symbol();
      } else {
        Arg.K = PS.Type == ScalarType::Real ? Argument::Kind::Real
                                            : Argument::Kind::Int;
        Arg.From = operand(DF, I.Operands[K]);
      }
      DF.Args.push_back(Arg);
    }
    D.End = static_cast<uint32_t>(DF.Args.size());
    break;
  }
  case Opcode::Print: {
    const Value &V = I.Operands[0];
    D.Code = isRealValue(Syms, V) ? Op::PrintR
             : V.isSym() && Syms.get(V.symbol()).Type == ScalarType::Bool
                 ? Op::PrintBool
                 : Op::PrintI;
    D.A = operand(DF, V);
    break;
  }
  }
  return D;
}

void Decoder::decode(DecodedFunction &DF) {
  const Function &F = *DF.F;
  const SymbolTable &Syms = F.symbols();
  DF.InitialCells.assign(Syms.size(), Cell());
  Constants.clear();
  for (SymbolID S = 0; S != Syms.size(); ++S) {
    const Symbol &Sym = Syms.get(S);
    if (Sym.isArray() && !Sym.IsParam)
      DF.LocalArrays.push_back({S, &Sym.Shape});
  }

  DF.BlockStart.resize(F.numBlocks());
  for (BlockID B = 0; B != F.numBlocks(); ++B) {
    DF.BlockStart[B] = static_cast<uint32_t>(DF.Ops.size());
    const std::vector<Instruction> &Insts = F.block(B)->instructions();
    for (size_t K = 0; K != Insts.size(); ++K) {
      DF.Ops.push_back(decodeOp(DF, Insts[K]));
      DF.Ops.back().Block = B;
      DF.Ops.back().Index = static_cast<uint32_t>(K);
    }
    if (Insts.empty() || !Insts.back().isTerminator()) {
      DecodedOp End;
      End.Code = Op::FellOff;
      End.Steps = 0;
      End.Block = B;
      DF.Ops.push_back(End);
    }
    fuse(DF, DF.BlockStart[B]);
  }
}

void Decoder::fuse(DecodedFunction &DF, size_t First) {
  for (size_t K = First; K + 1 < DF.Ops.size(); ++K) {
    if (DF.Ops[K].Code == Op::CheckIn && DF.Ops[K + 1].Code == Op::CheckIn) {
      DF.Ops[K].Code = Op::CheckPair;
      ++K; // the second half is never the first half of another pair
    }
  }
}

} // namespace

DecodedModule nascent::decodeModule(const Module &M,
                                    const obs::ExecutionProfile *Prof) {
  std::vector<const Function *> Fns = M.functions();
  DecodedModule DM;
  // Sized once: callees point into the vector.
  DM.Functions.resize(Fns.size());
  FunctionIndex Index;
  for (size_t K = 0; K != Fns.size(); ++K) {
    DM.Functions[K].F = Fns[K];
    Index[Fns[K]] = &DM.Functions[K];
    if (Prof)
      DM.Functions[K].ProfileIndex = Prof->functionIndex(Fns[K]);
  }
  Decoder D(M, Index);
  for (DecodedFunction &DF : DM.Functions)
    D.decode(DF);
  if (const Function *E = M.entry())
    DM.Entry = Index.at(E);
  return DM;
}

std::string nascent::haltMessage(const DecodedFunction &DF,
                                 const DecodedOp &O) {
  switch (O.Code) {
  case Op::DivI:
    return "integer division by zero";
  case Op::ModI:
    return "mod by zero";
  case Op::Trap:
    return "trap instruction reached (compile-time range violation)";
  case Op::Call:
  case Op::CallI:
  case Op::CallR:
    return "call to unknown function " + O.Src->Callee;
  case Op::FellOff:
    return "fell off the end of block bb" + std::to_string(O.Block);
  default:
    break;
  }
  const Instruction &I = *O.Src;
  std::string Msg = "range check failed: " + I.Check.str(DF.F->symbols());
  if (!I.Origin.ArrayName.empty())
    Msg += " (array " + I.Origin.ArrayName + ", dim " +
           std::to_string(I.Origin.Dim + 1) +
           (I.Origin.IsUpper ? ", upper" : ", lower") + " bound, line " +
           I.Origin.Loc.str() + ")";
  return Msg;
}

std::string nascent::refusedArrayMessage(const DecodedModule &DM) {
  for (const DecodedFunction &DF : DM.Functions)
    for (const auto &[Sym, Shape] : DF.LocalArrays) {
      // Probe with address space only: the block is freed untouched.
      size_t N = static_cast<size_t>(Shape->elementCount());
      void *P = N > std::vector<int64_t>().max_size()
                    ? nullptr
                    : ::operator new(N * sizeof(int64_t), std::nothrow);
      if (P) {
        ::operator delete(P);
        continue;
      }
      return "cannot allocate array " + DF.F->symbols().get(Sym).Name +
             " (" + std::to_string(N) + " elements)";
    }
  return "out of memory";
}
