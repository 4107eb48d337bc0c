//===----------------------------------------------------------------------===//
///
/// \file
/// The decoded form of a Nascent IR module and the scalar rules it runs
/// by: what an IR program does, defined once. The interpreter executes
/// the decoded ops and the instrumented-C back end prints one C statement
/// per op, so both resolve operand types, compare promotion, check terms,
/// argument conversion and print kinds the same way, and both evaluate
/// checks exactly and integer arithmetic with two's-complement wrapping.
///
/// Decoding resolves what does not change while a function runs, so the
/// interpreter's dispatch loop never consults a SymbolTable, a Value kind
/// or a callee name. It also specialises the hottest shape. A one-term
/// check becomes an interval test on one cell, and two adjacent one-term
/// checks -- the lower/upper pair of one subscript -- fuse into one op.
/// The fused op runs both halves exactly as two ops would: the step limit
/// is tested before the second half, each half reports its own profile
/// site and trap message, and the counters end the same. The second op
/// keeps its slot, so block starts do not move; the fused op steps over
/// it. The C back end prints the second half as a statement of its own.
///
//===----------------------------------------------------------------------===//

#ifndef NASCENT_INTERP_DECODED_H
#define NASCENT_INTERP_DECODED_H

#include "ir/Function.h"

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace nascent {

namespace obs {
class ExecutionProfile;
}

/// int64 arithmetic that wraps as two's complement does, without the
/// undefined behaviour of signed overflow.
inline int64_t wrapAdd(int64_t A, int64_t B) {
  return static_cast<int64_t>(static_cast<uint64_t>(A) +
                              static_cast<uint64_t>(B));
}
inline int64_t wrapSub(int64_t A, int64_t B) {
  return static_cast<int64_t>(static_cast<uint64_t>(A) -
                              static_cast<uint64_t>(B));
}
inline int64_t wrapMul(int64_t A, int64_t B) {
  return static_cast<int64_t>(static_cast<uint64_t>(A) *
                              static_cast<uint64_t>(B));
}
/// Quotient and remainder for \p B != 0: INT64_MIN / -1 wraps to
/// INT64_MIN, and its remainder is 0.
inline int64_t wrapDiv(int64_t A, int64_t B) {
  return B == -1 ? wrapSub(0, A) : A / B;
}
inline int64_t wrapMod(int64_t A, int64_t B) { return B == -1 ? 0 : A % B; }

/// int(X): truncation toward zero when the result fits int64, INT64_MIN
/// for NaN and for every value out of range.
inline int64_t realToInt(double X) {
  if (X >= -0x1p63 && X < 0x1p63)
    return static_cast<int64_t>(X);
  return std::numeric_limits<int64_t>::min();
}

/// Steps a Load or Store of \p Dims subscripts adds to the instruction
/// count: the access plus the multiply and add per dimension that the
/// paper's C back end emits for address arithmetic.
inline uint32_t accessSteps(size_t Dims) {
  return 1 + 2 * static_cast<uint32_t>(Dims);
}

/// One array dimension as execution addresses it: the declared bounds and
/// the column-major element stride.
struct DimLayout {
  int64_t Lower = 1;
  int64_t Upper = 1;
  size_t Stride = 1;
};
std::vector<DimLayout> layoutOf(const ArrayShape &S);

/// One scalar cell; the active member follows the symbol's type.
struct Cell {
  int64_t I = 0;
  double R = 0.0;
};

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

/// True for the ops whose step counts as a range check, not an
/// instruction.
inline bool isCheckOp(Op O) {
  return O == Op::Check || O == Op::CondCheck || O == Op::CheckIn ||
         O == Op::CheckPair;
}

struct DecodedFunction;

/// One decoded instruction. Fields an opcode does not use keep their
/// defaults.
struct DecodedOp {
  Op Code = Op::FellOff;
  /// Steps this op adds to DynInstrs + DynChecks: accessSteps() for
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
  /// Index of this function in the profile the module was decoded for;
  /// obs::ExecutionProfile::NoFunction without one.
  size_t ProfileIndex = ~size_t(0);
};

/// Every function of a module in decoded form, in Module::functions()
/// order. Callee pointers point into Functions, so the module is built in
/// place and never copied.
struct DecodedModule {
  std::vector<DecodedFunction> Functions;
  const DecodedFunction *Entry = nullptr; ///< null without an entry
};

/// Decodes every function of \p M. With \p Prof, each function records
/// its index in that profile, which must be attached to \p M.
DecodedModule decodeModule(const Module &M,
                           const obs::ExecutionProfile *Prof = nullptr);

/// True when the check or guard \p C holds on the cells \p S, judged by
/// the exact value of its sum: each product is taken in 128 bits, where it
/// cannot overflow, and a running sum that leaves 128 bits is carried. A
/// check thus fails exactly when the true subscript is out of range, and a
/// guard holds exactly when the condition it stands for does.
inline bool holds(const Cell *S, const Term *T, const DecodedCheck &C) {
  __int128 Sum = 0;
  int Carry = 0; // the exact sum is Sum + Carry * 2^128
  for (const Term *K = T + C.Begin, *E = T + C.End; K != E; ++K) {
    __int128 Product = __int128(K->Coeff) * S[K->Slot].I;
    if (__builtin_add_overflow(Sum, Product, &Sum))
      Carry += Product < 0 ? -1 : 1;
  }
  return Carry != 0 ? Carry < 0 : Sum <= C.Bound;
}

/// The message a run halts with at \p O of \p DF: a failed check, a Trap,
/// a zero divisor, an unknown callee, or the end of a block without a
/// terminator.
std::string haltMessage(const DecodedFunction &DF, const DecodedOp &O);

/// The message a run halts with when the allocator refused memory: it
/// names the first local array of \p DM, in decode order, whose storage
/// the allocator refuses on its own ("out of memory" when none). Defined
/// here, not beside the executor: a new helper in Interpreter.cpp changes
/// GCC's inlining of the executor loop and moved the checked-run time by
/// ~4 %.
std::string refusedArrayMessage(const DecodedModule &DM);

} // namespace nascent

#endif // NASCENT_INTERP_DECODED_H
