//===----------------------------------------------------------------------===//
///
/// \file
/// The check-alloc gate: the IR queries every analysis runs in its inner
/// loops must not touch the heap, nor may copying an instruction; a
/// module copy allocates per block and per array, not per instruction or
/// name; the front half allocates arena chunks, blocks and tables, not
/// a block per syntax node; and a CheckContext build and its data-flow
/// solves allocate row tables, not a set per block, check or family.
/// This binary replaces the global operator new/delete with counting
/// versions; a count is taken only inside an AllocationScope, so gtest's
/// own allocations never show.
///
/// Not built under NASCENT_SANITIZE: the sanitizer runtimes own
/// operator new.
///
//===----------------------------------------------------------------------===//

#include "checks/CheckUniverse.h"
#include "driver/Pipeline.h"
#include "ir/CheckExpr.h"
#include "ir/Function.h"
#include "ir/IRBuilder.h"
#include "frontend/Lowering.h"
#include "ir/LinearExpr.h"
#include "lang/Parser.h"
#include "lang/Sema.h"
#include "opt/CheckContext.h"
#include "suite/Suite.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <new>
#include <optional>

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

/// A Store a(i, j) = 1.5 with its upper-bound check's payload filled in:
/// two subscripts, one operand, a two-term check and a short array name,
/// the shape of most suite instructions.
Instruction storeWithInlineLists() {
  constexpr SymbolID I = 0, J = 1, N = 2, A = 3;
  Instruction S;
  S.Op = Opcode::Store;
  S.Array = A;
  S.Indices = {Value::sym(I), Value::sym(J)};
  S.Operands = {Value::realConst(1.5)};
  S.Check = CheckExpr(LinearExpr::term(I) - LinearExpr::term(N), 0);
  S.Origin = CheckOrigin{"a", 1, true, SourceLocation(3, 7)};
  S.Tag = 9;
  return S;
}

TEST(AllocationGate, InstructionsWithInlineLists) {
  const Instruction Src = storeWithInlineLists();
  size_t Count;
  bool Same;
  {
    AllocationScope Scope;
    Instruction Copy = Src;                             // copy
    Same = Copy.Operands == Src.Operands &&             // compare
           Copy.Indices == Src.Indices && Copy.Check == Src.Check &&
           Copy.Origin.ArrayName == Src.Origin.ArrayName;
    Instruction Moved = std::move(Copy);                // move
    Instruction Assigned;
    Assigned = Moved;                                   // copy-assign
    Assigned.Indices[1] = Value::intConst(4);
    Same = Same && Assigned.Indices != Src.Indices;
    Moved = std::move(Assigned);                        // move-assign
    Moved.Operands.clear();
    Moved.Operands.push_back(Value::sym(2));
    Moved.Operands.insert(Moved.Operands.begin(), Value::intConst(1));
    Moved.Operands.erase(Moved.Operands.begin());
    Same = Same && Moved.Operands.size() == 1 && Moved.Operands.isInline();
    Sink = Moved.Indices.size() + Moved.Operands.size();
    Count = Scope.count();
  }
  EXPECT_EQ(Count, 0u);
  EXPECT_TRUE(Same);
}

TEST(AllocationGate, OperandPastInlineCapacity) {
  // The positive control for the operand lists: a third operand (a call
  // passing three arguments) spills once, and so does copying it.
  Instruction Call;
  Call.Op = Opcode::Call;
  Call.Operands = {Value::sym(0), Value::sym(1)};
  size_t Spill, Copy;
  {
    AllocationScope Scope;
    Call.Operands.push_back(Value::intConst(7));
    Spill = Scope.count();
  }
  {
    AllocationScope Scope;
    Instruction Dup = Call;
    Sink = Dup.Operands.size();
    Copy = Scope.count();
  }
  EXPECT_EQ(Spill, 1u);
  EXPECT_EQ(Copy, 1u);
  EXPECT_EQ(Call.Operands.size(), 3u);
  EXPECT_EQ(Call.Operands[2], Value::intConst(7));
}

TEST(AllocationGate, PredecessorLists) {
  // A loop whose header joins the entry edge and the back edge, and an
  // exit block: recomputing and copying predecessor lists stays inline.
  Function F("f");
  IRBuilder B(F);
  SymbolID C = F.symbols().createScalar("c", ScalarType::Bool);
  BasicBlock *Entry = B.createBlock("entry");
  BasicBlock *Header = B.createBlock("header");
  BasicBlock *Body = B.createBlock("body");
  BasicBlock *Exit = B.createBlock("exit");
  B.setInsertBlock(Entry);
  B.emitJump(Header->id());
  B.setInsertBlock(Header);
  B.emitBr(Value::sym(C), Body->id(), Exit->id());
  B.setInsertBlock(Body);
  B.emitJump(Header->id());
  B.setInsertBlock(Exit);
  B.emitRet();

  size_t Count;
  {
    AllocationScope Scope;
    F.recomputePreds();
    PredList Copy = Header->preds();
    Sink = Copy.size() + Exit->preds().size();
    Count = Scope.count();
  }
  EXPECT_EQ(Count, 0u);
  EXPECT_EQ(Header->preds(), (PredList{Entry->id(), Body->id()}));
  EXPECT_EQ(Exit->preds(), PredList{Header->id()});
}

TEST(AllocationGate, SuiteModuleClones) {
  // Module::clone is what a frontend cache hit, a cache store and the
  // audit snapshot pay. Its allocations are the blocks (the object and
  // its instruction array), the symbol tables (the symbol array and one
  // shape per array; names resolve in Sema, so the table has no lookup
  // index to copy) and a few per function; no instruction allocates
  // unless a list spilled (a call with three or more arguments). The
  // bound is that structure.
  for (const SuiteProgram &P : benchmarkSuite()) {
    PipelineOptions Opts;
    Opts.Optimize = false;
    CompileResult R = compileSource(P.Source, Opts);
    ASSERT_TRUE(R.Success) << P.Name;
    size_t Blocks = 0, Arrays = 0, Functions = 0, Spilled = 0;
    for (const Function *F : R.M->functions()) {
      ++Functions;
      for (const Symbol &S : F->symbols().symbols())
        Arrays += S.isArray();
      for (const auto &BB : *F) {
        ++Blocks;
        for (const Instruction &I : BB->instructions())
          Spilled += !I.Operands.isInline() + !I.Indices.isInline();
      }
    }
    size_t Count;
    std::unique_ptr<Module> Copy;
    {
      AllocationScope Scope;
      Copy = R.M->clone();
      Count = Scope.count();
    }
    size_t Bound = 2 * Blocks + Arrays + 8 * Functions + Spilled + 2;
    EXPECT_LE(Count, Bound) << P.Name;
  }
}

TEST(AllocationGate, FrontendPerProgram) {
  // Parsing builds the tree, its lists and its names in one arena, so it
  // allocates arena chunks and a few tables, not a block per node or
  // name. Sema allocates per function and per symbol, lowering per block
  // (the object and its growing instruction array) and per function.
  for (const SuiteProgram &P : benchmarkSuite()) {
    std::string Src = P.Source;
    DiagnosticEngine Diags;
    size_t ParseCount, SemaCount, LowerCount;
    std::unique_ptr<ProgramAST> AST;
    std::unique_ptr<Module> M;
    {
      AllocationScope Scope;
      Parser Parse(Src, Diags);
      AST = Parse.parseProgram();
      ParseCount = Scope.count();
    }
    {
      AllocationScope Scope;
      M = Sema(*AST, Diags).run();
      SemaCount = Scope.count();
    }
    ASSERT_TRUE(M) << P.Name << ": " << Diags.render();
    {
      AllocationScope Scope;
      lowerProgram(*AST, *M);
      LowerCount = Scope.count();
    }
    size_t Blocks = 0, Arrays = 0, Functions = 0;
    for (const Function *F : M->functions()) {
      ++Functions;
      Blocks += F->numBlocks();
      for (const Symbol &S : F->symbols().symbols())
        Arrays += S.isArray();
    }
    // Parse: the chunks plus fixed tables (the tree's root, the name
    // table and the parser's list stacks), whatever the program's size.
    EXPECT_LE(ParseCount, AST->Mem.numChunks() + 32) << P.Name;
    // Sema: a function shell and its tables per unit, a shape per array.
    EXPECT_LE(SemaCount, 12 * Functions + Arrays + 8) << P.Name;
    // Lowering: a block object and its growing instruction array per
    // block, and per function its growing block, symbol and loop tables.
    EXPECT_LE(LowerCount, 5 * Blocks + 8 * Functions) << P.Name;
  }
}

/// Interns \p Checks (each twice) into a universe presized for them and
/// returns the allocations that took, building and filling included.
size_t presizedUniverseAllocations(const std::vector<CheckExpr> &Checks,
                                   size_t NumSymbols) {
  size_t Terms = 0;
  for (const CheckExpr &C : Checks)
    Terms += C.expr().terms().size();
  size_t Count;
  {
    AllocationScope Scope;
    CheckUniverse U;
    U.reserve(Checks.size(), Terms, NumSymbols);
    for (int Round = 0; Round != 2; ++Round)
      for (const CheckExpr &C : Checks)
        Sink = U.intern(C);
    Sink = U.familyMembers(U.familyOf(0)).size();
    Count = Scope.count();
  }
  return Count;
}

TEST(AllocationGate, PresizedCheckUniverse) {
  // A universe sized once from its check count allocates its flat tables
  // and nothing per check: 64 distinct checks (32 families of two bounds,
  // one or two inline terms) cost as many blocks as 8 do.
  auto Make = [](size_t N) {
    std::vector<CheckExpr> Out;
    for (size_t K = 0; K != N; ++K) {
      SymbolID A = static_cast<SymbolID>(K / 2 % 16);
      LinearExpr E = LinearExpr::term(A);
      if (K / 32 % 2)
        E += LinearExpr::term(A + 1, -2);
      Out.emplace_back(E, static_cast<int64_t>(K % 2 ? 10 : 3));
    }
    return Out;
  };
  std::vector<CheckExpr> Small = Make(8), Large = Make(64);
  size_t SmallCount = presizedUniverseAllocations(Small, 17);
  size_t LargeCount = presizedUniverseAllocations(Large, 17);
  EXPECT_EQ(LargeCount, SmallCount);
  // Checks, families (per check and per family), the two indexes, the
  // member and symbol pools and the per-symbol lists.
  EXPECT_LE(LargeCount, 8u);
}

TEST(AllocationGate, CheckContextBuildAndSolves) {
  // A context keeps each family of sets (kills, gens, entry facts, both
  // closures) as one row table, so its build allocates the universe's
  // flat tables plus a fixed set of its own — never per block, per check
  // or per family — and a solve allocates its two result tables (plus a
  // work list past 128 reachable blocks). Every suite function, PRX and
  // INX, under every implication mode.
  {
    // A first build and solve settle the thread's stat shard, whose
    // one-time growth is no cost of any later build.
    CompileResult R = compileSource(benchmarkSuite().front().Source);
    ASSERT_TRUE(R.Success);
    CheckContext Warm(*R.M->functions().front(), ImplicationMode::All);
    DataflowResult D = Warm.solveAvailability();
    DataflowResult E = Warm.solveAnticipatability();
  }
  for (const SuiteProgram &P : benchmarkSuite())
    for (CheckSource Src : {CheckSource::PRX, CheckSource::INX}) {
      PipelineOptions Opts;
      Opts.Optimize = false;
      Opts.Source = Src;
      CompileResult R = compileSource(P.Source, Opts);
      ASSERT_TRUE(R.Success) << P.Name;
      for (Function *F : R.M->functions()) {
        F->splitCriticalEdges();
        F->recomputePreds();
        for (ImplicationMode Mode :
             {ImplicationMode::All, ImplicationMode::CrossFamilyOnly,
              ImplicationMode::None}) {
          // The universe's own tables, sized the way the build sizes
          // them: the term of the bound that grows with the universe.
          size_t Checks = 0, Terms = 0;
          for (const auto &BB : *F)
            for (const Instruction &I : BB->instructions())
              if (I.Op == Opcode::Check) {
                ++Checks;
                Terms += I.Check.expr().terms().size();
              }
          size_t UniverseCount;
          {
            AllocationScope Scope;
            CheckUniverse U(Mode == ImplicationMode::None);
            U.reserve(Checks, Terms, F->symbols().size());
            UniverseCount = Scope.count();
          }
          std::optional<CheckContext> Ctx;
          size_t Build, Avail, Antic;
          {
            AllocationScope Scope;
            Ctx.emplace(*F, Mode);
            Build = Scope.count();
          }
          {
            AllocationScope Scope;
            DataflowResult D = Ctx->solveAvailability();
            Avail = Scope.count();
          }
          {
            AllocationScope Scope;
            DataflowResult D = Ctx->solveAnticipatability();
            Antic = Scope.count();
          }
          // The universe's tables, then the context's fourteen: the
          // shared core, the four per-instruction tables, the three block
          // tables and the two closure tables built with it (the
          // anticipatability gen table waits for its first reader), and
          // the block order (its search's mark, stack and post-order, and
          // the position table).
          EXPECT_LE(Build, UniverseCount + 14) << P.Name << " " << F->name();
          // In and Out; the first anticipatability solve also builds the
          // gen table it reads.
          EXPECT_LE(Avail, 3u) << P.Name << " " << F->name();
          EXPECT_LE(Antic, 3u) << P.Name << " " << F->name();
        }
      }
    }
}

} // namespace
