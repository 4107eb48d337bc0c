//===----------------------------------------------------------------------===//
///
/// \file
/// The check-alloc gate: the IR queries every analysis runs in its inner
/// loops must not touch the heap. This binary replaces the global
/// operator new/delete with counting versions; a count is taken only
/// inside an AllocationScope, so gtest's own allocations never show.
///
/// Not built under NASCENT_SANITIZE: the sanitizer runtimes own
/// operator new.
///
//===----------------------------------------------------------------------===//

#include "ir/CheckExpr.h"
#include "ir/Function.h"
#include "ir/IRBuilder.h"
#include "ir/LinearExpr.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <new>

namespace {

thread_local bool Counting = false;
thread_local size_t Allocations = 0;

void *countedAlloc(std::size_t Size) {
  if (Counting)
    ++Allocations;
  if (void *P = std::malloc(Size ? Size : 1))
    return P;
  throw std::bad_alloc();
}

} // namespace

void *operator new(std::size_t Size) { return countedAlloc(Size); }
void *operator new[](std::size_t Size) { return countedAlloc(Size); }
void operator delete(void *P) noexcept { std::free(P); }
void operator delete[](void *P) noexcept { std::free(P); }
void operator delete(void *P, std::size_t) noexcept { std::free(P); }
void operator delete[](void *P, std::size_t) noexcept { std::free(P); }

using namespace nascent;

namespace {

/// Counts the calls of operator new made while it is alive.
class AllocationScope {
public:
  AllocationScope() {
    Allocations = 0;
    Counting = true;
  }
  ~AllocationScope() { Counting = false; }
  size_t count() const { return Allocations; }
};

/// Keeps results observable so no computation is optimised away.
volatile size_t Sink;

TEST(AllocationGate, CounterSeesAllocations) {
  // The positive control: a third term spills a LinearExpr to the heap.
  LinearExpr E = LinearExpr::term(0) + LinearExpr::term(1);
  size_t Count;
  {
    AllocationScope Scope;
    E.addTerm(2, 1);
    Count = Scope.count();
  }
  EXPECT_EQ(Count, 1u);
  EXPECT_EQ(E.terms().size(), 3u);
}

TEST(AllocationGate, SuccessorsOfEveryTerminator) {
  Function F("f");
  IRBuilder B(F);
  SymbolID C = F.symbols().createScalar("c", ScalarType::Bool);
  BasicBlock *Entry = B.createBlock("entry");
  BasicBlock *Same = B.createBlock("same");
  BasicBlock *Jump = B.createBlock("jump");
  BasicBlock *Exit = B.createBlock("exit");
  BasicBlock *Fail = B.createBlock("fail");
  B.setInsertBlock(Entry);
  B.emitBr(Value::sym(C), Same->id(), Fail->id());
  B.setInsertBlock(Same);
  B.emitBr(Value::sym(C), Jump->id(), Jump->id());
  B.setInsertBlock(Jump);
  B.emitJump(Exit->id());
  B.setInsertBlock(Exit);
  B.emitRet();
  B.setInsertBlock(Fail);
  B.emitTrap();

  size_t Count, Edges = 0;
  bool Equal;
  {
    AllocationScope Scope;
    for (const auto &BB : F)
      for (BlockID S : BB->successors())
        Edges += S + 1;
    Equal = Entry->successors() == Entry->successors() &&
            Same->successors() != Jump->successors();
    Count = Scope.count();
  }
  Sink = Edges;
  EXPECT_EQ(Count, 0u);
  EXPECT_TRUE(Equal);
  EXPECT_EQ(Entry->successors().size(), 2u);
  EXPECT_EQ(Same->successors().size(), 1u);
  EXPECT_EQ(Jump->successors().size(), 1u);
  EXPECT_TRUE(Exit->successors().empty());
  EXPECT_TRUE(Fail->successors().empty());
}

TEST(AllocationGate, SmallLinearExprs) {
  constexpr SymbolID I = 0, J = 1, N = 2;
  const LinearExpr A = LinearExpr::term(I, 2) + LinearExpr::term(N, -1) +
                       LinearExpr::constant(3);
  const LinearExpr BJ = LinearExpr::term(J, 5);
  const LinearExpr BI = LinearExpr::term(I, 4) + LinearExpr::constant(1);
  const LinearExpr Repl = LinearExpr::term(J) + LinearExpr::constant(-1);

  size_t Count, Hash = 0;
  bool Same;
  {
    AllocationScope Scope;
    LinearExpr Copy = A;             // copy
    Same = Copy == A;                // compare
    Hash = Copy.hash() ^ A.hash();   // hash
    Copy += BI;                      // 2 terms stay 2
    Copy -= BI;
    LinearExpr Moved = std::move(Copy);
    Moved.substitute(N, Repl);       // -n becomes -j + 1: still 2 terms
    Moved.substitute(J, BJ);         // -j becomes -5j
    Moved -= LinearExpr::term(J, -5) + LinearExpr::term(I, 2);
    Moved += BJ;                     // back to one term, then two
    LinearExpr Assigned;
    Assigned = Moved;                // copy-assign
    Assigned = A.symbolicPart();     // move-assign
    Same = Same && Assigned != Moved && Assigned.scaled(-1) == A.negated()
                                                                 .symbolicPart();
    Hash += Assigned.hash() + Moved.terms().size();
    Count = Scope.count();
  }
  Sink = Hash;
  EXPECT_EQ(Count, 0u);
  EXPECT_TRUE(Same);
}

TEST(AllocationGate, SmallCheckExprs) {
  constexpr SymbolID I = 0, N = 2;
  const CheckExpr Upper(LinearExpr::term(I) - LinearExpr::term(N), 0);
  const CheckExpr Lower =
      CheckExpr::fromLowerBound(LinearExpr::term(I) + LinearExpr::constant(1),
                                1);

  size_t Count, Hash = 0;
  bool Same;
  {
    AllocationScope Scope;
    CheckExpr Copy = Upper;
    Same = Copy == Upper && Copy != Lower;
    Hash = Copy.hash() + Lower.hash();
    Copy = Lower;
    Same = Same && Copy == Lower;
    LinearExpr E = Upper.expr();
    E.substitute(N, LinearExpr::term(I, 2));
    CheckExpr Rebuilt(E, Upper.bound());
    Hash += Rebuilt.hash() + Rebuilt.expr().terms().size();
    Count = Scope.count();
  }
  Sink = Hash;
  EXPECT_EQ(Count, 0u);
  EXPECT_TRUE(Same);
}

} // namespace
