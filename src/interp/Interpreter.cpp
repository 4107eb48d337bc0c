#include "interp/Interpreter.h"

#include "analysis/CFGUtils.h"
#include "analysis/Dominators.h"
#include "analysis/LoopInfo.h"
#include "ir/IRPrinter.h"
#include "obs/Profile.h"
#include "obs/StatRegistry.h"
#include "support/StringUtils.h"

#include <cassert>
#include <cmath>
#include <cstring>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <unordered_map>

using namespace nascent;

NASCENT_STAT(NumRuns, "interp.runs", "module executions");
NASCENT_STAT(NumDynChecks, "interp.dyn_checks",
             "range checks executed across all runs");

namespace {

/// Runtime storage of one array.
struct ArrayStorage {
  /// One dimension's declared bounds and its element stride, computed
  /// once so an access does no stride arithmetic.
  struct Dim {
    int64_t Lower = 1;
    int64_t Upper = 1;
    size_t Stride = 1;
  };

  ScalarType Elem = ScalarType::Real;
  std::vector<Dim> Dims;
  std::vector<int64_t> Ints;
  std::vector<double> Reals;

  explicit ArrayStorage(const ArrayShape &S) : Elem(S.Element) {
    size_t N = 1;
    for (const ArrayDim &D : S.Dims) {
      Dims.push_back({D.Lower, D.Upper, N});
      N *= static_cast<size_t>(D.extent());
    }
    if (Elem == ScalarType::Real)
      Reals.assign(N, 0.0);
    else
      Ints.assign(N, 0);
  }
};

/// One scalar cell; the active member follows the symbol's type.
struct Cell {
  int64_t I = 0;
  double R = 0.0;
};

//===----------------------------------------------------------------------===//
// Decoded form
//
// interpret() decodes every function it reaches before the run starts:
// operand types, compare promotion, check terms, branch targets and callees
// are resolved once, so the dispatch loop never consults a SymbolTable, a
// Value kind or a callee name. The form lives for one interpret() call.
//
// Decoding also specialises the hottest shape. A one-term check becomes an
// interval test on one cell (oneTermInterval), and two adjacent one-term
// checks -- the lower/upper pair of one subscript -- fuse into one op. The
// fused op runs both halves exactly as two ops would: the step limit is
// tested before the second half, each half reports its own profile site
// and trap message, and the counters end the same. The second op keeps
// its slot, so block starts do not move; the fused op steps over it.
//===----------------------------------------------------------------------===//

/// An operand resolved to a frame cell. Symbol cells are indexed by
/// SymbolID; constants get cells past the symbols, preset in every new
/// frame, so each operand read is one indexed load.
struct Operand {
  uint32_t Slot = 0;
  /// Read as a real, the cell's R member holds the value (real symbols and
  /// every constant); otherwise the integer member is converted.
  bool Real = false;
};

/// One term  Coeff * cell(Slot).I  of a decoded check.
struct Term {
  uint32_t Slot = 0;
  int64_t Coeff = 0;
};

/// A canonical check  sum of Terms[Begin, End) <= Bound.
struct DecodedCheck {
  uint32_t Begin = 0;
  uint32_t End = 0;
  int64_t Bound = 0;
};

/// How a Call passes one argument to its parameter.
struct Argument {
  enum class Kind : uint8_t { Array, Real, Int };
  Operand From;
  SymbolID Param = InvalidSymbol;
  Kind K = Kind::Int;
};

/// Decoded opcodes: the IR opcode with the types it runs on resolved.
/// The I/R suffix names the cell member the result is computed in. The
/// arithmetic and compare runs keep Opcode's order so decoding can offset
/// into them.
enum class Op : uint8_t {
  AddI, SubI, MulI, DivI, ModI, NegI, MinI, MaxI, AbsI,
  AddR, SubR, MulR, DivR, ModR, NegR, MinR, MaxR, AbsR,
  EqI, NeI, LtI, LeI, GtI, GeI,
  EqR, NeR, LtR, LeR, GtR, GeR,
  And, Or, Not,
  CopyI, CopyR, IntToReal, RealToInt,
  Load, Store,
  Check, CondCheck, Trap,
  CheckIn,   ///< a one-term check as the interval test Lo <= x <= Lo + Span
  CheckPair, ///< a CheckIn fused with the CheckIn in the next slot
  Br, Jump,
  Ret, RetI, RetR,
  Call, CallI, CallR,
  PrintI, PrintR, PrintBool,
  FellOff, ///< the end of a block that has no terminator
};

struct DecodedFunction;

/// One decoded instruction. Fields an opcode does not use keep their
/// defaults.
struct DecodedOp {
  Op Code = Op::FellOff;
  /// Steps this op adds to DynInstrs + DynChecks: 1 + 2 * dims for
  /// Load/Store, 0 for FellOff, 1 otherwise. A check's step is its
  /// DynChecks count; every other step is an instruction.
  uint32_t Steps = 1;
  uint32_t Dest = 0;
  Operand A, B;
  /// Load/Store array symbol.
  SymbolID Array = InvalidSymbol;
  /// Span of the function's subscript, guard or argument pool
  /// (Load/Store, CondCheck, Call).
  uint32_t Begin = 0;
  uint32_t End = 0;
  /// Check/CondCheck payload.
  DecodedCheck Check;
  /// CheckIn/CheckPair interval on cell A.Slot: x holds when x - Lo,
  /// taken modulo 2^64, is at most Span.
  int64_t Lo = 0;
  uint64_t Span = 0;
  /// Br true/false and Jump targets.
  BlockID TrueBlock = InvalidBlock;
  BlockID FalseBlock = InvalidBlock;
  /// Source position, reported to the profile by checks.
  BlockID Block = 0;
  uint32_t Index = 0;
  /// Call target; null when the module has no such function.
  const DecodedFunction *Callee = nullptr;
  /// The source instruction, for fault and trap messages only.
  const Instruction *Src = nullptr;
};

/// One function in decoded form: its blocks' ops back to back, plus the
/// pools their spans index.
struct DecodedFunction {
  const Function *F = nullptr;
  std::vector<DecodedOp> Ops;
  std::vector<uint32_t> BlockStart; ///< first op of each block, by BlockID
  std::vector<Cell> InitialCells;   ///< zeroed symbols, then constants
  std::vector<std::pair<SymbolID, const ArrayShape *>> LocalArrays;
  std::vector<Operand> Subscripts;
  std::vector<Term> Terms;
  std::vector<DecodedCheck> Guards;
  std::vector<Argument> Args;
  size_t ProfileIndex = obs::ExecutionProfile::NoFunction;
};

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

/// Decodes the functions reachable from an entry function.
class Decoder {
public:
  Decoder(const Module &M, const obs::ExecutionProfile *Prof)
      : M(M), Prof(Prof) {}

  /// Decodes \p Entry and every function it can call; returns the entry.
  const DecodedFunction &decodeFrom(const Function &Entry) {
    const DecodedFunction *E = reach(Entry);
    while (!Pending.empty()) {
      DecodedFunction *DF = Pending.back();
      Pending.pop_back();
      decode(*DF);
    }
    return *E;
  }

private:
  /// The decoded form of \p F, queued for decoding on first sight.
  DecodedFunction *reach(const Function &F) {
    auto [It, New] = Index.try_emplace(&F, nullptr);
    if (New) {
      Funcs.push_back(std::make_unique<DecodedFunction>());
      It->second = Funcs.back().get();
      It->second->F = &F;
      Pending.push_back(It->second);
    }
    return It->second;
  }

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
  void decode(DecodedFunction &DF);
  /// Fuses adjacent CheckIn pairs from Ops[First] to the end.
  static void fuse(DecodedFunction &DF, size_t First);

  const Module &M;
  const obs::ExecutionProfile *Prof;
  std::vector<std::unique_ptr<DecodedFunction>> Funcs;
  std::unordered_map<const Function *, DecodedFunction *> Index;
  std::vector<DecodedFunction *> Pending;
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
    // Count the address arithmetic the paper's C back end would emit:
    // one multiply and one add per dimension plus the access itself.
    D.Steps = 1 + 2 * static_cast<uint32_t>(I.Indices.size());
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
    D.Callee = reach(*Callee);
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
  if (Prof)
    DF.ProfileIndex = Prof->functionIndex(&F);

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

/// One call frame.
struct Frame {
  std::vector<Cell> Cells;            ///< by operand slot
  std::vector<ArrayStorage *> Arrays; ///< by SymbolID (aliases for params)
  std::vector<std::unique_ptr<ArrayStorage>> Owned;
};

/// True when the check or guard \p C holds on the cells \p S, judged by
/// the exact value of its sum: each product is taken in 128 bits, where it
/// cannot overflow, and a running sum that leaves 128 bits is carried. A
/// check thus fails exactly when the true subscript is out of range, and a
/// guard holds exactly when the condition it stands for does.
bool holds(const Cell *S, const Term *T, const DecodedCheck &C) {
  __int128 Sum = 0;
  int Carry = 0; // the exact sum is Sum + Carry * 2^128
  for (const Term *K = T + C.Begin, *E = T + C.End; K != E; ++K) {
    __int128 Product = __int128(K->Coeff) * S[K->Slot].I;
    if (__builtin_add_overflow(Sum, Product, &Sum))
      Carry += Product < 0 ? -1 : 1;
  }
  return Carry != 0 ? Carry < 0 : Sum <= C.Bound;
}

/// int64 arithmetic that wraps as two's complement does, without the
/// undefined behaviour of signed overflow.
int64_t wrapAdd(int64_t A, int64_t B) {
  return static_cast<int64_t>(static_cast<uint64_t>(A) +
                              static_cast<uint64_t>(B));
}
int64_t wrapSub(int64_t A, int64_t B) {
  return static_cast<int64_t>(static_cast<uint64_t>(A) -
                              static_cast<uint64_t>(B));
}
int64_t wrapMul(int64_t A, int64_t B) {
  return static_cast<int64_t>(static_cast<uint64_t>(A) *
                              static_cast<uint64_t>(B));
}

double realOf(const Cell *S, Operand X) {
  return X.Real ? S[X.Slot].R : static_cast<double>(S[X.Slot].I);
}

/// The interpreter proper, running decoded functions. The Call op
/// marshals arguments into a fresh frame and recurses through execute().
class Executor {
public:
  Executor(const InterpOptions &Opts, ExecResult &R,
           obs::ExecutionProfile *Prof)
      : Opts(Opts), R(R), Prof(Prof) {}

  void runEntry(const DecodedFunction &DF) {
    Cell Dummy;
    Frame Fr = makeFrame(DF);
    execute(DF, Fr, Dummy, 0);
  }

private:
  static Frame makeFrame(const DecodedFunction &DF) {
    Frame Fr;
    Fr.Cells = DF.InitialCells;
    Fr.Arrays.assign(DF.F->symbols().size(), nullptr);
    for (const auto &[Sym, Shape] : DF.LocalArrays) {
      Fr.Owned.push_back(std::make_unique<ArrayStorage>(*Shape));
      Fr.Arrays[Sym] = Fr.Owned.back().get();
    }
    return Fr;
  }

  bool halted() const { return R.St != ExecResult::Status::Ok; }

  void fault(ExecResult::Status St, std::string Msg) {
    if (halted())
      return;
    R.St = St;
    R.FaultMessage = std::move(Msg);
  }

  static std::string checkFailureMessage(const Function &F,
                                         const Instruction &I) {
    std::string Msg = "range check failed: " + I.Check.str(F.symbols());
    if (!I.Origin.ArrayName.empty())
      Msg += " (array " + I.Origin.ArrayName + ", dim " +
             std::to_string(I.Origin.Dim + 1) +
             (I.Origin.IsUpper ? ", upper" : ", lower") + " bound, line " +
             I.Origin.Loc.str() + ")";
    return Msg;
  }

  /// Faults on a Load/Store whose subscripts are out of bounds.
  [[gnu::cold]] void outOfBounds(const DecodedFunction &DF,
                                 const DecodedOp &O) {
    fault(ExecResult::Status::HardFault,
          std::string(O.Code == Op::Load ? "out-of-bounds access"
                                         : "out-of-bounds store") +
              " on array " + DF.F->symbols().get(O.Array).Name +
              " (a range check should have fired)");
  }

  void execute(const DecodedFunction &DF, Frame &Fr, Cell &ResultOut,
               unsigned Depth);

  const InterpOptions &Opts;
  ExecResult &R;
  obs::ExecutionProfile *Prof;
};

void Executor::execute(const DecodedFunction &DF, Frame &Fr, Cell &ResultOut,
                       unsigned Depth) {
  if (Depth > Opts.MaxCallDepth) {
    fault(ExecResult::Status::CallDepthExceeded, "call depth exceeded");
    return;
  }
  BlockID Entry = DF.F->entryBlock();

  // Per-frame profiling state: loops in recursive activations count
  // independently, and the flush guard closes still-open loop entries as
  // partial no matter how the frame dies (trap, fault, in-loop return).
  size_t PFn = DF.ProfileIndex;
  obs::ExecutionProfile *P =
      PFn == obs::ExecutionProfile::NoFunction ? nullptr : Prof;
  obs::ProfileFrameState PFS;
  struct FrameFlush {
    obs::ExecutionProfile *P;
    size_t Fn;
    obs::ProfileFrameState &FS;
    ~FrameFlush() {
      if (P)
        P->flushFrame(Fn, FS);
    }
  } Flush{P, PFn, PFS};
  if (P) {
    PFS = P->makeFrameState(PFn);
    P->enterBlock(PFn, Entry, PFS);
  }

  // The counters live in locals, not in R: a cell store is an int64_t
  // store, which may alias R's uint64_t fields, so counters kept there
  // would go through memory on every op. Every exit leaves through Exit,
  // which writes them back, and a Call hands them to the callee in R.
  // Left is how many of the MaxSteps steps (DynInstrs + DynChecks) remain;
  // it goes negative when an op's steps carry the count past the limit.
  // A limit past INT64_MAX steps cannot be reached, so it is capped there.
  const int64_t Limit = static_cast<int64_t>(std::min<uint64_t>(
      Opts.MaxSteps, std::numeric_limits<int64_t>::max()));
  int64_t Left = Limit - static_cast<int64_t>(R.DynInstrs + R.DynChecks);
  uint64_t Checks = R.DynChecks;
  Cell *S = Fr.Cells.data();
  const DecodedOp *Ops = DF.Ops.data();
  const Term *Terms = DF.Terms.data();
  const Operand *Subscripts = DF.Subscripts.data();
  const uint32_t *BlockStart = DF.BlockStart.data();
  ArrayStorage *const *Arrays = Fr.Arrays.data();
  const DecodedOp *PC = Ops + DF.BlockStart[Entry];
  const DecodedOp *O = nullptr;
  for (;;) {
    O = PC++;
    if (Left <= 0 && O->Code != Op::FellOff)
      goto StepLimit;
    Left -= O->Steps;

    switch (O->Code) {
    case Op::AddI:
      S[O->Dest].I = wrapAdd(S[O->A.Slot].I, S[O->B.Slot].I);
      break;
    case Op::SubI:
      S[O->Dest].I = wrapSub(S[O->A.Slot].I, S[O->B.Slot].I);
      break;
    case Op::MulI:
      S[O->Dest].I = wrapMul(S[O->A.Slot].I, S[O->B.Slot].I);
      break;
    case Op::DivI:
    case Op::ModI: {
      int64_t A = S[O->A.Slot].I, B = S[O->B.Slot].I;
      if (B == 0) {
        fault(ExecResult::Status::HardFault, O->Code == Op::DivI
                                                 ? "integer division by zero"
                                                 : "mod by zero");
        goto Exit;
      }
      // INT64_MIN / -1 wraps to INT64_MIN, and its remainder is 0.
      if (O->Code == Op::DivI)
        S[O->Dest].I = B == -1 ? wrapSub(0, A) : A / B;
      else
        S[O->Dest].I = B == -1 ? 0 : A % B;
      break;
    }
    case Op::NegI:
      S[O->Dest].I = wrapSub(0, S[O->A.Slot].I);
      break;
    case Op::MinI:
      S[O->Dest].I = std::min(S[O->A.Slot].I, S[O->B.Slot].I);
      break;
    case Op::MaxI:
      S[O->Dest].I = std::max(S[O->A.Slot].I, S[O->B.Slot].I);
      break;
    case Op::AbsI: {
      int64_t A = S[O->A.Slot].I;
      S[O->Dest].I = A < 0 ? wrapSub(0, A) : A;
      break;
    }
    case Op::AddR:
      S[O->Dest].R = realOf(S, O->A) + realOf(S, O->B);
      break;
    case Op::SubR:
      S[O->Dest].R = realOf(S, O->A) - realOf(S, O->B);
      break;
    case Op::MulR:
      S[O->Dest].R = realOf(S, O->A) * realOf(S, O->B);
      break;
    case Op::DivR: {
      double B = realOf(S, O->B);
      S[O->Dest].R = B == 0.0 ? 0.0 : realOf(S, O->A) / B;
      break;
    }
    case Op::ModR: // mod has no real form; it has always yielded 0
      S[O->Dest].R = 0.0;
      break;
    case Op::NegR:
      S[O->Dest].R = -realOf(S, O->A);
      break;
    case Op::MinR:
      S[O->Dest].R = std::min(realOf(S, O->A), realOf(S, O->B));
      break;
    case Op::MaxR:
      S[O->Dest].R = std::max(realOf(S, O->A), realOf(S, O->B));
      break;
    case Op::AbsR:
      S[O->Dest].R = std::fabs(realOf(S, O->A));
      break;
    case Op::EqI:
      S[O->Dest].I = S[O->A.Slot].I == S[O->B.Slot].I;
      break;
    case Op::NeI:
      S[O->Dest].I = S[O->A.Slot].I != S[O->B.Slot].I;
      break;
    case Op::LtI:
      S[O->Dest].I = S[O->A.Slot].I < S[O->B.Slot].I;
      break;
    case Op::LeI:
      S[O->Dest].I = S[O->A.Slot].I <= S[O->B.Slot].I;
      break;
    case Op::GtI:
      S[O->Dest].I = S[O->A.Slot].I > S[O->B.Slot].I;
      break;
    case Op::GeI:
      S[O->Dest].I = S[O->A.Slot].I >= S[O->B.Slot].I;
      break;
    case Op::EqR:
      S[O->Dest].I = realOf(S, O->A) == realOf(S, O->B);
      break;
    case Op::NeR:
      S[O->Dest].I = realOf(S, O->A) != realOf(S, O->B);
      break;
    case Op::LtR:
      S[O->Dest].I = realOf(S, O->A) < realOf(S, O->B);
      break;
    case Op::LeR:
      S[O->Dest].I = realOf(S, O->A) <= realOf(S, O->B);
      break;
    case Op::GtR:
      S[O->Dest].I = realOf(S, O->A) > realOf(S, O->B);
      break;
    case Op::GeR:
      S[O->Dest].I = realOf(S, O->A) >= realOf(S, O->B);
      break;
    case Op::Br:
    case Op::Jump: {
      BlockID To = O->Code == Op::Jump || S[O->A.Slot].I != 0 ? O->TrueBlock
                                                              : O->FalseBlock;
      PC = Ops + BlockStart[To];
      if (P)
        P->enterBlock(PFn, To, PFS);
      break;
    }
    case Op::And:
      S[O->Dest].I = S[O->A.Slot].I != 0 && S[O->B.Slot].I != 0;
      break;
    case Op::Or:
      S[O->Dest].I = S[O->A.Slot].I != 0 || S[O->B.Slot].I != 0;
      break;
    case Op::Not:
      S[O->Dest].I = S[O->A.Slot].I == 0;
      break;
    case Op::CopyI:
      S[O->Dest].I = S[O->A.Slot].I;
      break;
    case Op::CopyR:
      S[O->Dest].R = realOf(S, O->A);
      break;
    case Op::IntToReal:
      S[O->Dest].R = static_cast<double>(S[O->A.Slot].I);
      break;
    case Op::RealToInt:
      S[O->Dest].I = static_cast<int64_t>(realOf(S, O->A));
      break;
    case Op::Load:
    case Op::Store: {
      ArrayStorage *Arr = Arrays[O->Array];
      if (!Arr)
        goto Unbound;
      const ArrayStorage::Dim *Dim = Arr->Dims.data();
      size_t Off = 0;
      for (uint32_t K = O->Begin; K != O->End; ++K, ++Dim) {
        int64_t Idx = S[Subscripts[K].Slot].I;
        if (Idx < Dim->Lower || Idx > Dim->Upper)
          goto OutOfBounds;
        Off += static_cast<size_t>(Idx - Dim->Lower) * Dim->Stride;
      }
      bool IsStore = O->Code == Op::Store;
      if (Arr->Elem == ScalarType::Real) {
        if (IsStore)
          Arr->Reals[Off] = realOf(S, O->A);
        else
          S[O->Dest].R = Arr->Reals[Off];
      } else {
        if (IsStore)
          Arr->Ints[Off] = S[O->A.Slot].I;
        else
          S[O->Dest].I = Arr->Ints[Off];
      }
      if (P)
        P->noteAccess(PFn, O->Array, IsStore);
      break;
    }
    case Op::CheckIn:
    case Op::CheckPair: {
    IntervalHalf:
      ++Checks;
      bool Traps = static_cast<uint64_t>(S[O->A.Slot].I) -
                       static_cast<uint64_t>(O->Lo) >
                   O->Span;
      if (P)
        P->noteCheck(PFn, O->Block, O->Index, Traps);
      if (Traps) {
        fault(ExecResult::Status::Trapped,
              checkFailureMessage(*DF.F, *O->Src));
        goto Exit;
      }
      if (O->Code != Op::CheckPair)
        break;
      // The second half is the CheckIn in the next slot.
      O = PC++;
      if (Left <= 0)
        goto StepLimit;
      Left -= O->Steps;
      goto IntervalHalf;
    }
    case Op::Check:
    case Op::CondCheck: {
      ++Checks;
      bool Traps;
      if (O->Code == Op::Check) {
        Traps = !holds(S, Terms, O->Check);
      } else {
        ++R.DynCondChecks;
        bool GuardsHold = true;
        for (uint32_t K = O->Begin; K != O->End; ++K)
          if (!holds(S, Terms, DF.Guards[K])) {
            GuardsHold = false;
            break;
          }
        Traps = GuardsHold && !holds(S, Terms, O->Check);
      }
      if (P)
        P->noteCheck(PFn, O->Block, O->Index, Traps);
      if (Traps) {
        fault(ExecResult::Status::Trapped,
              checkFailureMessage(*DF.F, *O->Src));
        goto Exit;
      }
      break;
    }
    case Op::Trap:
      fault(ExecResult::Status::Trapped,
            "trap instruction reached (compile-time range violation)");
      goto Exit;
    case Op::Ret:
      goto Exit;
    case Op::RetI:
      ResultOut.I = S[O->A.Slot].I;
      goto Exit;
    case Op::RetR:
      ResultOut.R = realOf(S, O->A);
      goto Exit;
    case Op::Call:
    case Op::CallI:
    case Op::CallR: {
      if (!O->Callee) {
        fault(ExecResult::Status::HardFault,
              "call to unknown function " + O->Src->Callee);
        goto Exit;
      }
      Frame Sub = makeFrame(*O->Callee);
      for (uint32_t K = O->Begin; K != O->End; ++K) {
        const Argument &Arg = DF.Args[K];
        switch (Arg.K) {
        case Argument::Kind::Array:
          Sub.Arrays[Arg.Param] = Fr.Arrays[Arg.From.Slot];
          break;
        case Argument::Kind::Real:
          Sub.Cells[Arg.Param].R = realOf(S, Arg.From);
          break;
        case Argument::Kind::Int:
          Sub.Cells[Arg.Param].I = S[Arg.From.Slot].I;
          break;
        }
      }
      Cell Result;
      R.DynInstrs = uint64_t(Limit) - uint64_t(Left) - Checks;
      R.DynChecks = Checks;
      execute(*O->Callee, Sub, Result, Depth + 1);
      Left = Limit - static_cast<int64_t>(R.DynInstrs + R.DynChecks);
      Checks = R.DynChecks;
      if (halted())
        goto Exit;
      if (O->Code == Op::CallR)
        S[O->Dest].R = Result.R;
      else if (O->Code == Op::CallI)
        S[O->Dest].I = Result.I;
      break;
    }
    case Op::PrintI:
      R.Output.push_back(std::to_string(S[O->A.Slot].I));
      break;
    case Op::PrintR:
      R.Output.push_back(formatString("%.6g", realOf(S, O->A)));
      break;
    case Op::PrintBool:
      R.Output.push_back(S[O->A.Slot].I ? "T" : "F");
      break;
    case Op::FellOff:
      fault(ExecResult::Status::HardFault,
            "fell off the end of block bb" + std::to_string(O->Block));
      goto Exit;
    }
  }

Unbound:
  fault(ExecResult::Status::HardFault, "unbound array parameter");
  goto Exit;
OutOfBounds:
  outOfBounds(DF, *O);
  goto Exit;
StepLimit:
  fault(ExecResult::Status::StepLimit, "step limit exceeded");
Exit:
  R.DynInstrs = uint64_t(Limit) - uint64_t(Left) - Checks;
  R.DynChecks = Checks;
}

} // namespace

ExecResult nascent::interpret(const Module &M, const InterpOptions &Opts) {
  ExecResult R;
  const Function *Entry = M.entry();
  if (!Entry) {
    R.St = ExecResult::Status::HardFault;
    R.FaultMessage = "module has no entry function";
    return R;
  }
  obs::ExecutionProfile *Prof =
      Opts.Profile && Opts.Profile->attached() ? Opts.Profile : nullptr;
  Decoder D(M, Prof);
  const DecodedFunction &DEntry = D.decodeFrom(*Entry);
  Executor E(Opts, R, Prof);
  E.runEntry(DEntry);
  if (Opts.Profile && Opts.Profile->attached())
    Opts.Profile->noteRun(R.St == ExecResult::Status::Trapped);
  ++NumRuns;
  NumDynChecks += R.DynChecks;
  return R;
}

StaticCounts nascent::countStatic(const Module &M) {
  StaticCounts C;
  for (const Function *F : M.functions()) {
    ++C.Units;
    for (const auto &BB : *F) {
      for (const Instruction &I : BB->instructions()) {
        if (I.isRangeCheck())
          ++C.Checks;
        else if (I.Op == Opcode::Load || I.Op == Opcode::Store)
          C.Instrs += 1 + 2 * static_cast<uint64_t>(I.Indices.size());
        else
          ++C.Instrs;
      }
    }
    Function &NonConst = const_cast<Function &>(*F);
    NonConst.recomputePreds();
    DominatorTree DT(*F);
    LoopInfo LI(*F, DT);
    C.Loops += LI.numLoops();
  }
  return C;
}
