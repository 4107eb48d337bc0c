//===----------------------------------------------------------------------===//
///
/// \file
/// Convenience layer for constructing IR: used by the AST lowering, the
/// optimizer (when it fabricates checks), tests, and the examples that
/// rebuild the paper's figure fragments directly against the public API.
/// Every emit constructs its instruction in place in the block's array.
///
//===----------------------------------------------------------------------===//

#ifndef NASCENT_IR_IRBUILDER_H
#define NASCENT_IR_IRBUILDER_H

#include "ir/Function.h"

namespace nascent {

/// Builds instructions into a current insertion block.
class IRBuilder {
public:
  explicit IRBuilder(Function &F) : F(F) {}

  Function &function() { return F; }

  void setInsertBlock(BasicBlock *BB) { CurBB = BB; }
  BasicBlock *insertBlock() { return CurBB; }

  /// Creates a block without changing the insertion point.
  BasicBlock *createBlock(std::string_view NameHint) {
    return F.createBlock(NameHint);
  }

  /// Emits Dest = Op(A, B) into a fresh temp and returns it as a Value.
  Value emitBinary(Opcode Op, Value A, Value B, ScalarType Ty);

  /// Emits Dest = Op(A, B) into an existing symbol.
  void emitBinaryTo(SymbolID Dest, Opcode Op, Value A, Value B);

  /// Emits Dest = Op(A) into a fresh temp and returns it.
  Value emitUnary(Opcode Op, Value A, ScalarType Ty);

  /// Emits Dest = Op(A) into an existing symbol.
  void emitUnaryTo(SymbolID Dest, Opcode Op, Value A);

  /// Emits Dest = A.
  void emitCopy(SymbolID Dest, Value A);

  /// Emits a Load of Array[Indices...] into a fresh temp and returns it.
  Value emitLoad(SymbolID Array, ValueList Indices);

  /// Emits Array[Indices...] = V.
  void emitStore(SymbolID Array, ValueList Indices, Value V);

  /// Emits an unconditional range check.
  void emitCheck(CheckExpr C, CheckOrigin Origin = {});

  /// Emits a guarded range check (all guards must hold to perform C).
  void emitCondCheck(std::vector<CheckExpr> Guards, CheckExpr C,
                     CheckOrigin Origin = {});

  void emitBr(Value Cond, BlockID TrueBB, BlockID FalseBB);
  void emitJump(BlockID Target);
  void emitRet();
  void emitRetValue(Value V);
  void emitTrap(CheckOrigin Origin = {});

  /// Emits a call; returns the result temp for functions, or an engaged-
  /// empty Value for subroutines.
  Value emitCall(std::string_view Callee, ValueList Args,
                 std::optional<ScalarType> ResultTy);

  void emitPrint(Value V);

private:
  /// Constructs an instruction with opcode \p Op at the end of the
  /// insertion block and returns it for the caller to fill in.
  Instruction &add(Opcode Op) {
    assert(CurBB && "no insertion block set");
    return CurBB->appendNew(Op);
  }

  Function &F;
  BasicBlock *CurBB = nullptr;
};

} // namespace nascent

#endif // NASCENT_IR_IRBUILDER_H
