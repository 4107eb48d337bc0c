//===----------------------------------------------------------------------===//
///
/// \file
/// Tests of the IR structures: symbol tables, the builder, CFG edges,
/// critical-edge splitting, the printer, the verifier, and the inline
/// operand lists.
///
//===----------------------------------------------------------------------===//

#include "ir/IRBuilder.h"
#include "ir/IRPrinter.h"
#include "ir/Verifier.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <vector>

using namespace nascent;

TEST(SymbolTable, CreateAndLookup) {
  SymbolTable T;
  SymbolID N = T.createScalar("n", ScalarType::Int, /*IsParam=*/true);
  ArrayShape Shape;
  Shape.Element = ScalarType::Real;
  Shape.Dims = {{1, 10}, {0, 4}};
  SymbolID A = T.createArray("a", Shape);
  SymbolID Tmp = T.createTemp(ScalarType::Int);

  EXPECT_EQ(T.lookup("n"), N);
  EXPECT_EQ(T.lookup("a"), A);
  EXPECT_EQ(T.lookup("zzz"), InvalidSymbol);
  EXPECT_TRUE(T.get(N).IsParam);
  EXPECT_TRUE(T.get(A).isArray());
  EXPECT_EQ(T.get(A).Shape.rank(), 2u);
  EXPECT_EQ(T.get(A).Shape.elementCount(), 50);
  EXPECT_EQ(T.get(Tmp).Kind, SymbolKind::Temp);
  // Temps get unique printable names.
  SymbolID Tmp2 = T.createTemp(ScalarType::Int);
  EXPECT_NE(T.name(Tmp), T.name(Tmp2));
}

TEST(IRBuilder, BuildsDiamond) {
  Function F("f");
  IRBuilder B(F);
  SymbolID C = F.symbols().createScalar("c", ScalarType::Bool);
  SymbolID X = F.symbols().createScalar("x", ScalarType::Int);

  BasicBlock *Entry = B.createBlock("entry");
  BasicBlock *Then = B.createBlock("then");
  BasicBlock *Else = B.createBlock("else");
  BasicBlock *Join = B.createBlock("join");

  B.setInsertBlock(Entry);
  B.emitBr(Value::sym(C), Then->id(), Else->id());
  B.setInsertBlock(Then);
  B.emitCopy(X, Value::intConst(1));
  B.emitJump(Join->id());
  B.setInsertBlock(Else);
  B.emitCopy(X, Value::intConst(2));
  B.emitJump(Join->id());
  B.setInsertBlock(Join);
  B.emitRet();

  F.recomputePreds();
  EXPECT_EQ(Entry->successors(), SuccessorList(Then->id(), Else->id()));
  EXPECT_EQ(Then->successors(), SuccessorList(Join->id()));
  EXPECT_TRUE(Join->successors().empty());
  EXPECT_EQ(Join->preds().size(), 2u);
  EXPECT_TRUE(Join->terminator().Op == Opcode::Ret);

  DiagnosticEngine D;
  EXPECT_TRUE(verifyFunction(F, D)) << D.render();
}

TEST(BasicBlock, SuccessorsFollowTheTerminator) {
  // Br lists its true target first; a Br whose targets are equal has one
  // successor; Ret and Trap have none.
  Function F("f");
  IRBuilder B(F);
  SymbolID C = F.symbols().createScalar("c", ScalarType::Bool);
  BasicBlock *Entry = B.createBlock("entry");
  BasicBlock *Same = B.createBlock("same");
  BasicBlock *Exit = B.createBlock("exit");
  BasicBlock *Fail = B.createBlock("fail");
  B.setInsertBlock(Entry);
  B.emitBr(Value::sym(C), Fail->id(), Same->id());
  B.setInsertBlock(Same);
  B.emitBr(Value::sym(C), Exit->id(), Exit->id());
  B.setInsertBlock(Exit);
  B.emitRet();
  B.setInsertBlock(Fail);
  B.emitTrap();

  SuccessorList Two = Entry->successors();
  ASSERT_EQ(Two.size(), 2u);
  EXPECT_EQ(Two[0], Fail->id());
  EXPECT_EQ(Two[1], Same->id());
  EXPECT_EQ(std::vector<BlockID>(Two.begin(), Two.end()),
            (std::vector<BlockID>{Fail->id(), Same->id()}));
  EXPECT_EQ(Same->successors(), SuccessorList(Exit->id()));
  EXPECT_EQ(Same->successors().size(), 1u);
  EXPECT_NE(Same->successors(), SuccessorList(Exit->id(), Exit->id()));
  EXPECT_TRUE(Exit->successors().empty());
  EXPECT_EQ(Exit->successors(), SuccessorList());
  EXPECT_TRUE(Fail->successors().empty());

  F.recomputePreds();
  EXPECT_EQ(Exit->preds(), PredList{Same->id()});
}

TEST(Function, SplitCriticalEdges) {
  // entry branches to {mid, join}; mid jumps to join: edge entry->join is
  // critical (entry has 2 succs, join has 2 preds).
  Function F("f");
  IRBuilder B(F);
  SymbolID C = F.symbols().createScalar("c", ScalarType::Bool);
  BasicBlock *Entry = B.createBlock("entry");
  BasicBlock *Mid = B.createBlock("mid");
  BasicBlock *Join = B.createBlock("join");
  B.setInsertBlock(Entry);
  B.emitBr(Value::sym(C), Mid->id(), Join->id());
  B.setInsertBlock(Mid);
  B.emitJump(Join->id());
  B.setInsertBlock(Join);
  B.emitRet();

  size_t Before = F.numBlocks();
  unsigned NumSplit = F.splitCriticalEdges();
  EXPECT_EQ(NumSplit, 1u);
  EXPECT_EQ(F.numBlocks(), Before + 1);

  // No critical edges remain.
  F.recomputePreds();
  for (const auto &BB : F) {
    auto Succs = BB->successors();
    if (Succs.size() < 2)
      continue;
    for (BlockID S : Succs)
      EXPECT_LT(F.block(S)->preds().size(), 2u);
  }
  DiagnosticEngine D;
  EXPECT_TRUE(verifyFunction(F, D)) << D.render();
}

TEST(Verifier, CatchesMissingTerminator) {
  Function F("f");
  F.createBlock("entry"); // empty block, no terminator
  DiagnosticEngine D;
  EXPECT_FALSE(verifyFunction(F, D));
  EXPECT_NE(D.render().find("terminator"), std::string::npos);
}

TEST(Verifier, CatchesBadBranchTarget) {
  Function F("f");
  IRBuilder B(F);
  SymbolID C = F.symbols().createScalar("c", ScalarType::Bool);
  BasicBlock *Entry = B.createBlock("entry");
  B.setInsertBlock(Entry);
  B.emitBr(Value::sym(C), 7, 8); // out-of-range targets
  DiagnosticEngine D;
  EXPECT_FALSE(verifyFunction(F, D));
}

TEST(Verifier, CatchesNonIntegerCheckSymbol) {
  Function F("f");
  IRBuilder B(F);
  SymbolID R = F.symbols().createScalar("r", ScalarType::Real);
  BasicBlock *Entry = B.createBlock("entry");
  B.setInsertBlock(Entry);
  B.emitCheck(CheckExpr(LinearExpr::term(R), 5));
  B.emitRet();
  DiagnosticEngine D;
  EXPECT_FALSE(verifyFunction(F, D));
  EXPECT_NE(D.render().find("non-integer"), std::string::npos);
}

TEST(Verifier, CatchesSubscriptArity) {
  Function F("f");
  IRBuilder B(F);
  ArrayShape Shape;
  Shape.Element = ScalarType::Real;
  Shape.Dims = {{1, 4}, {1, 4}};
  SymbolID A = F.symbols().createArray("a", Shape);
  BasicBlock *Entry = B.createBlock("entry");
  B.setInsertBlock(Entry);
  B.emitLoad(A, {Value::intConst(1)}); // rank 2 array, 1 subscript
  B.emitRet();
  DiagnosticEngine D;
  EXPECT_FALSE(verifyFunction(F, D));
  EXPECT_NE(D.render().find("arity"), std::string::npos);
}

TEST(Verifier, ModuleChecksCallArity) {
  Module M;
  M.setEntry("main");
  Function *Main = M.createFunction("main");
  Function *Callee = M.createFunction("callee");
  Callee->params().push_back(
      Callee->symbols().createScalar("x", ScalarType::Int, true));
  {
    IRBuilder B(*Callee);
    B.setInsertBlock(B.createBlock("entry"));
    B.emitRet();
  }
  {
    IRBuilder B(*Main);
    B.setInsertBlock(B.createBlock("entry"));
    B.emitCall("callee", {}, std::nullopt); // missing argument
    B.emitRet();
  }
  DiagnosticEngine D;
  EXPECT_FALSE(verifyModule(M, D));
  EXPECT_NE(D.render().find("expected 1"), std::string::npos);
}

TEST(IRPrinter, RendersInstructions) {
  Function F("f");
  IRBuilder B(F);
  SymbolID N = F.symbols().createScalar("n", ScalarType::Int);
  ArrayShape Shape;
  Shape.Element = ScalarType::Real;
  Shape.Dims = {{5, 10}};
  SymbolID A = F.symbols().createArray("a", Shape);
  BasicBlock *Entry = B.createBlock("entry");
  B.setInsertBlock(Entry);
  B.emitCheck(CheckExpr(LinearExpr::term(N, 2), 10));
  B.emitCondCheck({CheckExpr(LinearExpr::term(N, -2), 0)},
                  CheckExpr(LinearExpr::term(N, 2), 10));
  B.emitStore(A, {Value::sym(N)}, Value::realConst(1.5));
  B.emitRet();

  std::string Out = printFunction(F);
  EXPECT_NE(Out.find("Check(2*n <= 10)"), std::string::npos);
  EXPECT_NE(Out.find("Cond-check((-2*n <= 0), 2*n <= 10)"),
            std::string::npos);
  EXPECT_NE(Out.find("store a[n] = 1.5"), std::string::npos);
  EXPECT_NE(Out.find("ret"), std::string::npos);
}

TEST(ValueList, RandomEditsMatchAReferenceModel) {
  // Random edits over a pool of operand lists, mirrored on std::vectors:
  // the elements, their order and equality must match after every step,
  // across spills past the two inline slots and shrinks back.
  std::mt19937 Rng(21);
  auto Pick = [&](int Lo, int Hi) {
    return std::uniform_int_distribution<int>(Lo, Hi)(Rng);
  };
  auto RandomValue = [&] {
    switch (Pick(0, 3)) {
    case 0:
      return Value::sym(SymbolID(Pick(0, 9)));
    case 1:
      return Value::intConst(Pick(-9, 9));
    case 2:
      return Value::realConst(Pick(-9, 9) * 0.5);
    default:
      return Value::boolConst(Pick(0, 1));
    }
  };

  constexpr size_t PoolSize = 4;
  std::vector<ValueList> Pool(PoolSize);
  std::vector<std::vector<Value>> Models(PoolSize);
  size_t Spilled = 0, Refilled = 0;
  for (int Step = 0; Step != 4000; ++Step) {
    size_t X = size_t(Pick(0, PoolSize - 1));
    size_t Y = size_t(Pick(0, PoolSize - 1));
    ValueList &L = Pool[X];
    std::vector<Value> &M = Models[X];
    bool WasInline = L.isInline();
    switch (Pick(0, 9)) {
    case 0:
    case 1: {
      if (M.size() >= 6)
        break; // keep the lists near the spill boundary
      Value V = RandomValue();
      L.push_back(V);
      M.push_back(V);
      break;
    }
    case 2: {
      if (M.size() >= 6)
        break;
      size_t At = size_t(Pick(0, int(M.size())));
      // Half the time the inserted value is one of the list's own
      // elements, which a spill must not lose.
      bool Own = !M.empty() && Pick(0, 1);
      size_t From = Own ? size_t(Pick(0, int(M.size()) - 1)) : 0;
      Value V = Own ? M[From] : RandomValue();
      auto It = L.insert(L.begin() + At, Own ? L[From] : V);
      M.insert(M.begin() + static_cast<ptrdiff_t>(At), V);
      EXPECT_EQ(*It, V);
      break;
    }
    case 3: {
      if (M.empty())
        break;
      size_t At = size_t(Pick(0, int(M.size()) - 1));
      L.erase(L.begin() + At);
      M.erase(M.begin() + static_cast<ptrdiff_t>(At));
      break;
    }
    case 4: {
      std::vector<Value> Src(size_t(Pick(0, 5)));
      for (Value &V : Src)
        V = RandomValue();
      L.assign(Src.begin(), Src.end());
      M = Src;
      break;
    }
    case 5:
      Pool[X] = Pool[Y];
      Models[X] = Models[Y];
      break;
    case 6: {
      ValueList Tmp = std::move(Pool[Y]);
      Pool[Y] = std::move(Pool[X]);
      Pool[X] = std::move(Tmp);
      std::swap(Models[X], Models[Y]);
      break;
    }
    case 7: {
      ValueList Copy(Pool[Y]);
      EXPECT_EQ(Copy, Pool[Y]);
      EXPECT_EQ(Copy.isInline(), Copy.size() <= ValueList::InlineCapacity);
      L = std::move(Copy);
      M = Models[Y];
      break;
    }
    case 8:
      if (!M.empty()) {
        L.erase(L.end() - 1);
        M.pop_back();
      }
      break;
    default:
      if (Pick(0, 3) == 0) {
        L.clear();
        M.clear();
      }
      break;
    }
    Spilled += WasInline && !Pool[X].isInline();
    Refilled += !WasInline && Pool[X].isInline();
    for (size_t K = 0; K != PoolSize; ++K) {
      ASSERT_EQ(Pool[K].size(), Models[K].size()) << "step " << Step;
      EXPECT_TRUE(std::equal(Pool[K].begin(), Pool[K].end(),
                             Models[K].begin()))
          << "step " << Step;
      EXPECT_EQ(Pool[K].empty(), Models[K].empty());
      EXPECT_LE(Pool[K].size(), Pool[K].capacity());
    }
    EXPECT_EQ(Pool[X] == Pool[Y], Models[X] == Models[Y]) << "step " << Step;
  }
  // The walk crossed the spill boundary both ways many times.
  EXPECT_GT(Spilled, 50u);
  EXPECT_GT(Refilled, 50u);
}

TEST(ValueList, SpillKeepsOrderAndCapacity) {
  ValueList L = {Value::sym(1), Value::intConst(2)};
  EXPECT_TRUE(L.isInline());
  L.push_back(Value::realConst(3.5));
  EXPECT_FALSE(L.isInline());
  ASSERT_EQ(L.size(), 3u);
  EXPECT_EQ(L[0], Value::sym(1));
  EXPECT_EQ(L[1], Value::intConst(2));
  EXPECT_EQ(L[2], Value::realConst(3.5));
  // A shrunk list keeps its heap block, as std::vector keeps capacity...
  L.erase(L.begin(), L.begin() + 2);
  EXPECT_FALSE(L.isInline());
  EXPECT_EQ(L, ValueList{Value::realConst(3.5)});
  // ...but a copy of it is inline again.
  ValueList Copy = L;
  EXPECT_TRUE(Copy.isInline());
  EXPECT_EQ(Copy, L);
  // Values compare by kind and payload.
  EXPECT_NE(Value::intConst(1), Value::boolConst(true));
  EXPECT_NE(Value::sym(0), Value::intConst(0));
  EXPECT_EQ(Value(), Value());
}
