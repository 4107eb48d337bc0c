#include "ir/IRBuilder.h"

using namespace nascent;

Value IRBuilder::emitBinary(Opcode Op, Value A, Value B, ScalarType Ty) {
  SymbolID Dest = F.symbols().createTemp(Ty);
  emitBinaryTo(Dest, Op, A, B);
  return Value::sym(Dest);
}

void IRBuilder::emitBinaryTo(SymbolID Dest, Opcode Op, Value A, Value B) {
  Instruction &I = add(Op);
  I.Dest = Dest;
  I.Operands = {A, B};
}

Value IRBuilder::emitUnary(Opcode Op, Value A, ScalarType Ty) {
  SymbolID Dest = F.symbols().createTemp(Ty);
  emitUnaryTo(Dest, Op, A);
  return Value::sym(Dest);
}

void IRBuilder::emitUnaryTo(SymbolID Dest, Opcode Op, Value A) {
  Instruction &I = add(Op);
  I.Dest = Dest;
  I.Operands = {A};
}

void IRBuilder::emitCopy(SymbolID Dest, Value A) {
  emitUnaryTo(Dest, Opcode::Copy, A);
}

Value IRBuilder::emitLoad(SymbolID Array, ValueList Indices) {
  SymbolID Dest = F.symbols().createTemp(F.symbols().get(Array).Type);
  Instruction &I = add(Opcode::Load);
  I.Dest = Dest;
  I.Array = Array;
  I.Indices = std::move(Indices);
  return Value::sym(Dest);
}

void IRBuilder::emitStore(SymbolID Array, ValueList Indices, Value V) {
  Instruction &I = add(Opcode::Store);
  I.Array = Array;
  I.Indices = std::move(Indices);
  I.Operands = {V};
}

void IRBuilder::emitCheck(CheckExpr C, CheckOrigin Origin) {
  Instruction &I = add(Opcode::Check);
  I.Check = std::move(C);
  I.Origin = std::move(Origin);
  I.Tag = F.allocateCheckTag();
}

void IRBuilder::emitCondCheck(std::vector<CheckExpr> Guards, CheckExpr C,
                              CheckOrigin Origin) {
  Instruction &I = add(Opcode::CondCheck);
  I.Guards = std::move(Guards);
  I.Check = std::move(C);
  I.Origin = std::move(Origin);
  I.Tag = F.allocateCheckTag();
}

void IRBuilder::emitBr(Value Cond, BlockID TrueBB, BlockID FalseBB) {
  Instruction &I = add(Opcode::Br);
  I.Operands = {Cond};
  I.TrueTarget = TrueBB;
  I.FalseTarget = FalseBB;
}

void IRBuilder::emitJump(BlockID Target) {
  add(Opcode::Jump).TrueTarget = Target;
}

void IRBuilder::emitRet() { add(Opcode::Ret); }

void IRBuilder::emitRetValue(Value V) { add(Opcode::Ret).Operands = {V}; }

void IRBuilder::emitTrap(CheckOrigin Origin) {
  add(Opcode::Trap).Origin = std::move(Origin);
}

Value IRBuilder::emitCall(std::string_view Callee, ValueList Args,
                          std::optional<ScalarType> ResultTy) {
  Value Result;
  SymbolID Dest = InvalidSymbol;
  if (ResultTy) {
    Dest = F.symbols().createTemp(*ResultTy);
    Result = Value::sym(Dest);
  }
  Instruction &I = add(Opcode::Call);
  I.Dest = Dest;
  I.Callee = Callee;
  I.Operands = std::move(Args);
  return Result;
}

void IRBuilder::emitPrint(Value V) { add(Opcode::Print).Operands = {V}; }
