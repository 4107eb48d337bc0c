//===----------------------------------------------------------------------===//
///
/// \file
/// The Nascent IR instruction set: a three-address statement IR with
/// first-class range-check instructions. Checks being real instructions is
/// what lets the interpreter measure dynamic check counts directly on the
/// code the optimizer rewrote.
///
//===----------------------------------------------------------------------===//

#ifndef NASCENT_IR_INSTRUCTION_H
#define NASCENT_IR_INSTRUCTION_H

#include "ir/CheckExpr.h"
#include "ir/Symbol.h"
#include "support/InlineVector.h"
#include "support/SourceLocation.h"

#include <cstdint>
#include <string>
#include <vector>

namespace nascent {

/// Dense index of a basic block within its function.
using BlockID = uint32_t;
constexpr BlockID InvalidBlock = ~BlockID(0);

/// Stable per-function identity of one range check, assigned when the
/// check is first materialised (naive lowering or optimizer insertion)
/// and carried through every later transformation: strengthening and
/// INX rewrites keep the tag, preheader re-hoisting moves it, and the
/// Trap replacing a constant-false check inherits it. The provenance
/// subsystem (obs/Provenance.h) keys check lifecycles on this tag; 0
/// means "untagged" (checks fabricated directly by tests).
using CheckTag = uint32_t;
constexpr CheckTag NoCheckTag = 0;

/// Instruction opcodes.
enum class Opcode {
  // Arithmetic: Dest = op(Operands...)
  Add,
  Sub,
  Mul,
  Div,
  Mod,
  Neg,
  Min,
  Max,
  Abs,
  // Comparisons (produce 0/1 into an integer/bool symbol)
  CmpEQ,
  CmpNE,
  CmpLT,
  CmpLE,
  CmpGT,
  CmpGE,
  // Logic on 0/1 values
  And,
  Or,
  Not,
  // Data movement
  Copy,     ///< Dest = Operands[0]
  IntToReal,///< Dest(real) = Operands[0](int)
  RealToInt,///< Dest(int) = trunc(Operands[0](real))
  // Memory
  Load,  ///< Dest = Array[Indices...]
  Store, ///< Array[Indices...] = Operands[0]
  // Range checking
  Check,     ///< trap unless Check holds
  CondCheck, ///< if all Guards hold, trap unless Check holds
  Trap,      ///< unconditional trap (terminator)
  // Control flow
  Br,   ///< conditional branch on Operands[0]: TrueTarget / FalseTarget
  Jump, ///< unconditional branch to TrueTarget
  Ret,  ///< return (Operands[0] if the function has a result)
  Call, ///< Dest? = Callee(Operands...); array args passed by reference
  Print ///< append Operands[0] to the interpreter's output log
};

/// Returns the mnemonic for \p Op.
const char *opcodeName(Opcode Op);

/// True for opcodes that terminate a basic block.
bool isTerminator(Opcode Op);

/// True for the two range-check opcodes (the paper's dynamic-check metric
/// counts exactly these).
inline bool isRangeCheckOp(Opcode Op) {
  return Op == Opcode::Check || Op == Opcode::CondCheck;
}

/// An operand: a symbol reference or an immediate constant. 16 bytes: the
/// kind plus one payload slot that the kind selects.
class Value {
public:
  enum class Kind { None, Sym, IntConst, RealConst, BoolConst };

  Value() = default;

  static Value sym(SymbolID S) {
    Value V;
    V.K = Kind::Sym;
    V.SymId = S;
    return V;
  }
  static Value intConst(int64_t I) {
    Value V;
    V.K = Kind::IntConst;
    V.Int = I;
    return V;
  }
  static Value realConst(double R) {
    Value V;
    V.K = Kind::RealConst;
    V.Real = R;
    return V;
  }
  static Value boolConst(bool B) {
    Value V;
    V.K = Kind::BoolConst;
    V.Int = B ? 1 : 0;
    return V;
  }

  Kind kind() const { return K; }
  bool isSym() const { return K == Kind::Sym; }
  bool isIntConst() const { return K == Kind::IntConst; }
  bool isRealConst() const { return K == Kind::RealConst; }
  bool isBoolConst() const { return K == Kind::BoolConst; }
  bool isConst() const { return isIntConst() || isRealConst() || isBoolConst(); }

  SymbolID symbol() const {
    assert(isSym() && "not a symbol operand");
    return SymId;
  }
  int64_t intValue() const {
    assert((isIntConst() || isBoolConst()) && "not an integer constant");
    return Int;
  }
  double realValue() const {
    assert(isRealConst() && "not a real constant");
    return Real;
  }

  /// Same kind and same payload (reals compare as doubles).
  friend bool operator==(const Value &A, const Value &B) {
    if (A.K != B.K)
      return false;
    switch (A.K) {
    case Kind::None:
      return true;
    case Kind::Sym:
      return A.SymId == B.SymId;
    case Kind::IntConst:
    case Kind::BoolConst:
      return A.Int == B.Int;
    case Kind::RealConst:
      return A.Real == B.Real;
    }
    return false;
  }
  friend bool operator!=(const Value &A, const Value &B) { return !(A == B); }

private:
  Kind K = Kind::None;
  union {
    SymbolID SymId;
    int64_t Int = 0;
    double Real;
  };
};

/// Operands and subscripts of one instruction. Suite instructions have at
/// most two operands (only a few calls pass more) and arrays at most two
/// dimensions, so two values live inline and copying an instruction
/// allocates nothing; longer lists spill to the heap in the same order
/// (support/InlineVector.h).
using ValueList = InlineVector<Value, 2>;

/// One IR instruction. A tagged struct rather than a class hierarchy: the
/// optimizer freely moves, clones, and rewrites instructions and value
/// semantics keep that simple.
struct Instruction {
  // The four 32-bit fields lead so the record packs without padding.
  Opcode Op = Opcode::Copy;
  SymbolID Dest = InvalidSymbol;  ///< destination (arith/copy/load/call)
  SymbolID Array = InvalidSymbol; ///< Load/Store array symbol
  CheckTag Tag = NoCheckTag;      ///< lifecycle identity (Check/CondCheck/Trap)

  ValueList Operands; ///< op-dependent operands (see Opcode)
  ValueList Indices;  ///< Load/Store subscripts, one per dim

  CheckExpr Check;               ///< Check/CondCheck payload
  std::vector<CheckExpr> Guards; ///< CondCheck guards (conjunction)
  CheckOrigin Origin;            ///< provenance for Check/CondCheck/Trap

  std::string Callee; ///< Call target name

  BlockID TrueTarget = InvalidBlock;  ///< Br true edge / Jump target
  BlockID FalseTarget = InvalidBlock; ///< Br false edge

  SourceLocation Loc;

  bool isTerminator() const { return nascent::isTerminator(Op); }
  bool isRangeCheck() const { return isRangeCheckOp(Op); }
};

static_assert(sizeof(Value) == 16, "a Value is a kind and one payload");
static_assert(sizeof(Instruction) <= 256,
              "instructions are copied wholesale by Module::clone");

} // namespace nascent

#endif // NASCENT_IR_INSTRUCTION_H
