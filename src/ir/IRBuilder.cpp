#include "ir/IRBuilder.h"

using namespace nascent;

void IRBuilder::append(Instruction I) {
  assert(CurBB && "no insertion block set");
  CurBB->append(std::move(I));
}

Value IRBuilder::emitBinary(Opcode Op, Value A, Value B, ScalarType Ty) {
  SymbolID Dest = F.symbols().createTemp(Ty);
  emitBinaryTo(Dest, Op, A, B);
  return Value::sym(Dest);
}

void IRBuilder::emitBinaryTo(SymbolID Dest, Opcode Op, Value A, Value B) {
  Instruction I;
  I.Op = Op;
  I.Dest = Dest;
  I.Operands = {A, B};
  append(std::move(I));
}

Value IRBuilder::emitUnary(Opcode Op, Value A, ScalarType Ty) {
  SymbolID Dest = F.symbols().createTemp(Ty);
  emitUnaryTo(Dest, Op, A);
  return Value::sym(Dest);
}

void IRBuilder::emitUnaryTo(SymbolID Dest, Opcode Op, Value A) {
  Instruction I;
  I.Op = Op;
  I.Dest = Dest;
  I.Operands = {A};
  append(std::move(I));
}

void IRBuilder::emitCopy(SymbolID Dest, Value A) {
  Instruction I;
  I.Op = Opcode::Copy;
  I.Dest = Dest;
  I.Operands = {A};
  append(std::move(I));
}

Value IRBuilder::emitLoad(SymbolID Array, ValueList Indices) {
  SymbolID Dest = F.symbols().createTemp(F.symbols().get(Array).Type);
  Instruction I;
  I.Op = Opcode::Load;
  I.Dest = Dest;
  I.Array = Array;
  I.Indices = std::move(Indices);
  append(std::move(I));
  return Value::sym(Dest);
}

void IRBuilder::emitStore(SymbolID Array, ValueList Indices, Value V) {
  Instruction I;
  I.Op = Opcode::Store;
  I.Array = Array;
  I.Indices = std::move(Indices);
  I.Operands = {V};
  append(std::move(I));
}

void IRBuilder::emitCheck(CheckExpr C, CheckOrigin Origin) {
  Instruction I;
  I.Op = Opcode::Check;
  I.Check = std::move(C);
  I.Origin = std::move(Origin);
  I.Tag = F.allocateCheckTag();
  append(std::move(I));
}

void IRBuilder::emitCondCheck(std::vector<CheckExpr> Guards, CheckExpr C,
                              CheckOrigin Origin) {
  Instruction I;
  I.Op = Opcode::CondCheck;
  I.Guards = std::move(Guards);
  I.Check = std::move(C);
  I.Origin = std::move(Origin);
  I.Tag = F.allocateCheckTag();
  append(std::move(I));
}

void IRBuilder::emitBr(Value Cond, BlockID TrueBB, BlockID FalseBB) {
  Instruction I;
  I.Op = Opcode::Br;
  I.Operands = {Cond};
  I.TrueTarget = TrueBB;
  I.FalseTarget = FalseBB;
  append(std::move(I));
}

void IRBuilder::emitJump(BlockID Target) {
  Instruction I;
  I.Op = Opcode::Jump;
  I.TrueTarget = Target;
  append(std::move(I));
}

void IRBuilder::emitRet() {
  Instruction I;
  I.Op = Opcode::Ret;
  append(std::move(I));
}

void IRBuilder::emitRetValue(Value V) {
  Instruction I;
  I.Op = Opcode::Ret;
  I.Operands = {V};
  append(std::move(I));
}

void IRBuilder::emitTrap(CheckOrigin Origin) {
  Instruction I;
  I.Op = Opcode::Trap;
  I.Origin = std::move(Origin);
  append(std::move(I));
}

Value IRBuilder::emitCall(const std::string &Callee, ValueList Args,
                          std::optional<ScalarType> ResultTy) {
  Instruction I;
  I.Op = Opcode::Call;
  I.Callee = Callee;
  I.Operands = std::move(Args);
  Value Result;
  if (ResultTy) {
    I.Dest = F.symbols().createTemp(*ResultTy);
    Result = Value::sym(I.Dest);
  }
  append(std::move(I));
  return Result;
}

void IRBuilder::emitPrint(Value V) {
  Instruction I;
  I.Op = Opcode::Print;
  I.Operands = {V};
  append(std::move(I));
}
