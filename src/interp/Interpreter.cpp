#include "interp/Interpreter.h"

#include "analysis/Dominators.h"
#include "analysis/LoopInfo.h"
#include "interp/Decoded.h"
#include "obs/Profile.h"
#include "obs/StatRegistry.h"
#include "support/StringUtils.h"

#include <cmath>
#include <limits>
#include <memory>
#include <new>
#include <stdexcept>

using namespace nascent;

NASCENT_STAT(NumRuns, "interp.runs", "module executions");
NASCENT_STAT(NumDynChecks, "interp.dyn_checks",
             "range checks executed across all runs");

namespace {

/// Runtime storage of one array. The dimension layouts are computed once
/// so an access does no stride arithmetic.
struct ArrayStorage {
  ScalarType Elem = ScalarType::Real;
  std::vector<DimLayout> Dims;
  std::vector<int64_t> Ints;
  std::vector<double> Reals;

  explicit ArrayStorage(const ArrayShape &S)
      : Elem(S.Element), Dims(layoutOf(S)) {
    size_t N = static_cast<size_t>(S.elementCount());
    if (Elem == ScalarType::Real)
      Reals.assign(N, 0.0);
    else
      Ints.assign(N, 0);
  }
};

/// One call frame.
struct Frame {
  std::vector<Cell> Cells;            ///< by operand slot
  std::vector<ArrayStorage *> Arrays; ///< by SymbolID (aliases for params)
  std::vector<std::unique_ptr<ArrayStorage>> Owned;
};

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
        fault(ExecResult::Status::HardFault, haltMessage(DF, *O));
        goto Exit;
      }
      S[O->Dest].I = O->Code == Op::DivI ? wrapDiv(A, B) : wrapMod(A, B);
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
      S[O->Dest].I = realToInt(realOf(S, O->A));
      break;
    case Op::Load:
    case Op::Store: {
      ArrayStorage *Arr = Arrays[O->Array];
      if (!Arr)
        goto Unbound;
      const DimLayout *Dim = Arr->Dims.data();
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
        fault(ExecResult::Status::Trapped, haltMessage(DF, *O));
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
        fault(ExecResult::Status::Trapped, haltMessage(DF, *O));
        goto Exit;
      }
      break;
    }
    case Op::Trap:
      fault(ExecResult::Status::Trapped, haltMessage(DF, *O));
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
        fault(ExecResult::Status::HardFault, haltMessage(DF, *O));
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
      fault(ExecResult::Status::HardFault, haltMessage(DF, *O));
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
  DecodedModule DM = decodeModule(M, Prof);
  Executor E(Opts, R, Prof);
  // An array the allocator refuses ends the run as a HardFault. It is
  // caught here, not where frames are built, so the executor loop stays
  // as it is; the counts stay those of the last call boundary.
  try {
    E.runEntry(*DM.Entry);
  } catch (const std::bad_alloc &) {
    R.St = ExecResult::Status::HardFault;
    R.FaultMessage = refusedArrayMessage(DM);
  } catch (const std::length_error &) {
    R.St = ExecResult::Status::HardFault;
    R.FaultMessage = refusedArrayMessage(DM);
  }
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
          C.Instrs += accessSteps(I.Indices.size());
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
