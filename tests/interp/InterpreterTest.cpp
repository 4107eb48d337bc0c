//===----------------------------------------------------------------------===//
///
/// \file
/// Interpreter tests: arithmetic, control flow, arrays (including
/// by-reference array parameters), traps, the instruction/check counters,
/// and the execution limits. The hand-built modules pin what the
/// interpreter resolves before a run: mixed int/real operand types, exact
/// step accounting, guarded checks, calls made from a loop, fused check
/// pairs, and exact check evaluation.
///
//===----------------------------------------------------------------------===//

#include "TestHelpers.h"

#include "ir/IRBuilder.h"
#include "obs/Profile.h"

#include <gtest/gtest.h>

#include <limits>
#include <random>

using namespace nascent;
using namespace nascent::test;

namespace {

ExecResult runNaive(const std::string &Src) {
  CompileResult R = compileNaive(Src);
  return interpret(*R.M);
}

/// A one-function module built by hand, for IR the front end never emits
/// (mixed-type operands) and for exact instruction counts.
struct HandModule {
  Module M;
  Function *F = M.createFunction("main");
  IRBuilder B{*F};

  HandModule() {
    M.setEntry("main");
    B.setInsertBlock(B.createBlock("entry"));
  }

  SymbolID scalar(const std::string &Name, ScalarType Ty) {
    return F->symbols().createScalar(Name, Ty);
  }
};

TEST(Interpreter, IntegerArithmetic) {
  ExecResult E = runNaive(R"(
program p
  integer a
  a = (7 + 5) * 3 - 4
  print a
  print mod(17, 5)
  print min(3, -2)
  print max(3, -2)
  print abs(-9)
end program
)");
  ASSERT_EQ(E.St, ExecResult::Status::Ok) << E.FaultMessage;
  EXPECT_EQ(E.Output,
            (std::vector<std::string>{"32", "2", "-2", "3", "9"}));
}

TEST(Interpreter, IntegerDivisionTruncates) {
  ExecResult E = runNaive(R"(
program p
  print 7 / 2
  print -7 / 2
end program
)");
  EXPECT_EQ(E.Output, (std::vector<std::string>{"3", "-3"}));
}

TEST(Interpreter, RealArithmeticAndConversion) {
  ExecResult E = runNaive(R"(
program p
  real r
  integer i
  r = 3.5 * 2.0
  print r
  i = int(r) + 1
  print i
  r = real(i) / 4.0
  print r
end program
)");
  EXPECT_EQ(E.Output, (std::vector<std::string>{"7", "8", "2"}));
}

TEST(Interpreter, RealToIntTruncatesOrGivesInt64Min) {
  // int(x) truncates when the result fits int64 and is INT64_MIN for NaN
  // and for values out of range, both at run time and when folded.
  ExecResult E = runNaive(R"(
program p
  real x
  x = 1.0e300
  print int(x)
  print int(-x)
  print int(x * x - x * x)
  print int(1.0e300)
  print int(-2.9)
  x = 9.2e18
  print int(x)
end program
)");
  ASSERT_EQ(E.St, ExecResult::Status::Ok) << E.FaultMessage;
  const std::string Min = std::to_string(std::numeric_limits<int64_t>::min());
  EXPECT_EQ(E.Output, (std::vector<std::string>{Min, Min, Min, Min, "-2",
                                                "9200000000000000000"}));
}

TEST(Interpreter, LogicalOps) {
  ExecResult E = runNaive(R"(
program p
  logical a, b
  a = 1 < 2 and 3 >= 3
  b = not a or 2 == 3
  print a
  print b
end program
)");
  EXPECT_EQ(E.Output, (std::vector<std::string>{"T", "F"}));
}

TEST(Interpreter, ControlFlow) {
  ExecResult E = runNaive(R"(
program p
  integer i, s
  s = 0
  do i = 1, 10, 2
    s = s + i
  end do
  print s
  while (s > 10) do
    s = s - 7
  end while
  print s
end program
)");
  EXPECT_EQ(E.Output, (std::vector<std::string>{"25", "4"}));
}

TEST(Interpreter, ZeroTripLoop) {
  ExecResult E = runNaive(R"(
program p
  integer i, s, n
  n = 0
  s = 42
  do i = 1, n
    s = s + 100
  end do
  print s
end program
)");
  EXPECT_EQ(E.Output, (std::vector<std::string>{"42"}));
}

TEST(Interpreter, DescendingLoop) {
  ExecResult E = runNaive(R"(
program p
  integer i, s
  s = 0
  do i = 5, 1, -1
    s = s * 10 + i
  end do
  print s
end program
)");
  EXPECT_EQ(E.Output, (std::vector<std::string>{"54321"}));
}

TEST(Interpreter, ArraysColumnMajorIndependentCells) {
  ExecResult E = runNaive(R"(
program p
  integer a(3, 3)
  integer i, j
  do i = 1, 3
    do j = 1, 3
      a(i, j) = i * 10 + j
    end do
  end do
  print a(2, 3)
  print a(3, 1)
end program
)");
  EXPECT_EQ(E.Output, (std::vector<std::string>{"23", "31"}));
}

TEST(Interpreter, ArrayParameterAliasesCaller) {
  ExecResult E = runNaive(R"(
program p
  integer v(4)
  call setall(v, 9)
  print v(1) + v(4)
end program
subroutine setall(a, val)
  integer a(4), val, i
  do i = 1, 4
    a(i) = val
  end do
end subroutine
)");
  EXPECT_EQ(E.Output, (std::vector<std::string>{"18"}));
}

TEST(Interpreter, ScalarArgsPassedByValue) {
  ExecResult E = runNaive(R"(
program p
  integer x
  x = 5
  call shadow(x)
  print x
end program
subroutine shadow(x)
  integer x
  x = 99
end subroutine
)");
  EXPECT_EQ(E.Output, (std::vector<std::string>{"5"}));
}

TEST(Interpreter, RecursiveFunction) {
  ExecResult E = runNaive(R"(
program p
  print fact(6)
end program
function fact(n) : integer
  integer n
  if (n <= 1) then
    return 1
  end if
  return n * fact(n - 1)
end function
)");
  EXPECT_EQ(E.Output, (std::vector<std::string>{"720"}));
}

TEST(Interpreter, UpperBoundTrap) {
  ExecResult E = runNaive(R"(
program p
  real a(10)
  integer i
  i = 11
  a(i) = 1.0
  print a(1)
end program
)");
  EXPECT_EQ(E.St, ExecResult::Status::Trapped);
  EXPECT_NE(E.FaultMessage.find("range check failed"), std::string::npos);
  EXPECT_NE(E.FaultMessage.find("array a"), std::string::npos);
  EXPECT_NE(E.FaultMessage.find("upper"), std::string::npos);
  EXPECT_TRUE(E.Output.empty()); // the trap fires before the print
}

TEST(Interpreter, LowerBoundTrap) {
  ExecResult E = runNaive(R"(
program p
  real a(5:10)
  integer i
  i = 4
  print a(i)
end program
)");
  EXPECT_EQ(E.St, ExecResult::Status::Trapped);
  EXPECT_NE(E.FaultMessage.find("lower"), std::string::npos);
}

TEST(Interpreter, OutputBeforeTrapIsKept) {
  ExecResult E = runNaive(R"(
program p
  real a(5)
  integer i
  print 1
  print 2
  i = 6
  a(i) = 0.0
  print 3
end program
)");
  EXPECT_EQ(E.St, ExecResult::Status::Trapped);
  EXPECT_EQ(E.Output, (std::vector<std::string>{"1", "2"}));
}

TEST(Interpreter, CountsSeparateChecksFromInstructions) {
  ExecResult E = runNaive(R"(
program p
  real a(10)
  integer i
  do i = 1, 10
    a(i) = 1.0
  end do
end program
)");
  // 10 iterations x 2 checks.
  EXPECT_EQ(E.DynChecks, 20u);
  EXPECT_GT(E.DynInstrs, 0u);
  EXPECT_EQ(E.DynCondChecks, 0u);
}

TEST(Interpreter, StepLimit) {
  PipelineOptions PO;
  PO.Optimize = false;
  CompileResult R = compileOrDie(R"(
program p
  integer i
  i = 0
  while (i >= 0) do
    i = i + 1
  end while
end program
)",
                                 PO);
  InterpOptions IO;
  IO.MaxSteps = 10'000;
  ExecResult E = interpret(*R.M, IO);
  EXPECT_EQ(E.St, ExecResult::Status::StepLimit);
}

TEST(Interpreter, CallDepthLimit) {
  CompileResult R = compileNaive(R"(
program p
  print inf(1)
end program
function inf(n) : integer
  integer n
  return inf(n + 1)
end function
)");
  InterpOptions IO;
  IO.MaxCallDepth = 50;
  ExecResult E = interpret(*R.M, IO);
  EXPECT_EQ(E.St, ExecResult::Status::CallDepthExceeded);
}

TEST(Interpreter, UninitialisedVariablesAreZero) {
  ExecResult E = runNaive(R"(
program p
  integer i
  real r
  print i
  print r
end program
)");
  EXPECT_EQ(E.Output, (std::vector<std::string>{"0", "0"}));
}

TEST(Interpreter, CondCheckSemantics) {
  // Build a CondCheck via the LLS pipeline on a zero-trip loop: the
  // guard is false at run time, so the hoisted check must not trap even
  // though the substituted bound would fail.
  PipelineOptions PO;
  PO.Opt.Scheme = PlacementScheme::LLS;
  CompileResult R = compileOrDie(R"(
program p
  real a(10)
  integer n, i
  n = 50
  do i = 1, n - 50
    a(i + 40) = 1.0
  end do
  print a(1)
end program
)",
                                 PO);
  ExecResult E = interpret(*R.M);
  EXPECT_EQ(E.St, ExecResult::Status::Ok) << E.FaultMessage;
  EXPECT_EQ(E.Output, (std::vector<std::string>{"0"}));
}

TEST(Interpreter, MixedIntRealComparesAndCopies) {
  HandModule H;
  SymbolID I = H.scalar("i", ScalarType::Int);
  SymbolID R = H.scalar("r", ScalarType::Real);
  SymbolID RI = H.scalar("ri", ScalarType::Real);
  SymbolID IR = H.scalar("ir", ScalarType::Int);
  IRBuilder &B = H.B;
  auto Cmp = [&](Opcode Op, Value A, Value C) {
    B.emitPrint(B.emitBinary(Op, A, C, ScalarType::Bool));
  };
  B.emitCopy(I, Value::intConst(3));
  B.emitCopy(R, Value::realConst(2.5));
  // An int variable against a real one compares as reals.
  Cmp(Opcode::CmpLT, Value::sym(I), Value::sym(R));
  Cmp(Opcode::CmpGT, Value::sym(I), Value::sym(R));
  // A real constant against an int variable, in both operand orders: the
  // compare is promoted, so 3 < 3.5 and 3.0 == 3 hold.
  Cmp(Opcode::CmpLT, Value::sym(I), Value::realConst(3.5));
  Cmp(Opcode::CmpGT, Value::realConst(3.5), Value::sym(I));
  Cmp(Opcode::CmpEQ, Value::realConst(3.0), Value::sym(I));
  // An int constant against a real variable.
  Cmp(Opcode::CmpLE, Value::intConst(2), Value::sym(R));
  Cmp(Opcode::CmpGE, Value::intConst(3), Value::sym(R));
  // Copy into a real converts an int variable or constant.
  B.emitCopy(RI, Value::sym(I));
  B.emitPrint(Value::sym(RI));
  B.emitCopy(RI, Value::intConst(7));
  B.emitPrint(Value::sym(RI));
  // Copy into an int does not convert a real: it reads the integer member
  // of the real cell, which no real write sets. RealToInt converts.
  B.emitCopy(IR, Value::sym(R));
  B.emitPrint(Value::sym(IR));
  B.emitUnaryTo(IR, Opcode::RealToInt, Value::sym(R));
  B.emitPrint(Value::sym(IR));
  // Real arithmetic reads an int operand as a real.
  B.emitBinaryTo(RI, Opcode::Add, Value::sym(I), Value::realConst(0.5));
  B.emitPrint(Value::sym(RI));
  B.emitRet();

  ExecResult E = interpret(H.M);
  ASSERT_EQ(E.St, ExecResult::Status::Ok) << E.FaultMessage;
  EXPECT_EQ(E.Output,
            (std::vector<std::string>{"F", "T", "T", "T", "T", "T", "T", "3",
                                      "7", "0", "2", "3.5"}));
}

TEST(Interpreter, StepLimitStopsAtExactCount) {
  // Copy (1), Check, Store to a rank-2 array (1 + 2*2), Copy (1), Ret (1):
  // 8 instructions and 1 check in all. The limit is tested before each
  // instruction, so the Store's cost of 5 can carry the count past it.
  HandModule H;
  SymbolID I = H.scalar("i", ScalarType::Int);
  SymbolID J = H.scalar("j", ScalarType::Int);
  ArrayShape Shape;
  Shape.Element = ScalarType::Real;
  Shape.Dims = {{1, 2}, {1, 2}};
  SymbolID A = H.F->symbols().createArray("a", Shape);
  H.B.emitCopy(I, Value::intConst(1));
  H.B.emitCheck(CheckExpr(LinearExpr::term(I), 10));
  H.B.emitStore(A, {Value::sym(I), Value::sym(I)}, Value::realConst(1.0));
  H.B.emitCopy(J, Value::intConst(2));
  H.B.emitRet();

  struct Case {
    uint64_t MaxSteps;
    ExecResult::Status St;
    uint64_t Instrs, Checks;
  };
  const Case Cases[] = {
      {1, ExecResult::Status::StepLimit, 1, 0},
      {2, ExecResult::Status::StepLimit, 1, 1},
      {3, ExecResult::Status::StepLimit, 6, 1},
      {7, ExecResult::Status::StepLimit, 6, 1},
      {8, ExecResult::Status::StepLimit, 7, 1},
      {9, ExecResult::Status::Ok, 8, 1},
  };
  for (const Case &C : Cases) {
    InterpOptions IO;
    IO.MaxSteps = C.MaxSteps;
    ExecResult E = interpret(H.M, IO);
    EXPECT_EQ(E.St, C.St) << "MaxSteps=" << C.MaxSteps;
    EXPECT_EQ(E.DynInstrs, C.Instrs) << "MaxSteps=" << C.MaxSteps;
    EXPECT_EQ(E.DynChecks, C.Checks) << "MaxSteps=" << C.MaxSteps;
    EXPECT_EQ(E.FaultMessage, C.St == ExecResult::Status::StepLimit
                                  ? "step limit exceeded"
                                  : "");
  }
}

TEST(Interpreter, IntegerDivisionAndModByZeroFault) {
  for (Opcode Op : {Opcode::Div, Opcode::Mod}) {
    HandModule H;
    SymbolID A = H.scalar("a", ScalarType::Int);
    SymbolID Z = H.scalar("z", ScalarType::Int);
    H.B.emitCopy(A, Value::intConst(7));
    H.B.emitCopy(Z, Value::intConst(0));
    H.B.emitPrint(Value::sym(A));
    H.B.emitPrint(H.B.emitBinary(Op, Value::sym(A), Value::sym(Z),
                                 ScalarType::Int));
    H.B.emitRet();

    ExecResult E = interpret(H.M);
    EXPECT_EQ(E.St, ExecResult::Status::HardFault);
    EXPECT_EQ(E.FaultMessage, Op == Opcode::Div ? "integer division by zero"
                                                : "mod by zero");
    EXPECT_EQ(E.DynInstrs, 4u); // two copies, the print, the faulting op
    EXPECT_EQ(E.DynChecks, 0u);
    EXPECT_EQ(E.Output, (std::vector<std::string>{"7"}));
  }
}

TEST(Interpreter, CondCheckFirstGuardFalseSkipsPayload) {
  // Guards (n <= 4) and (n <= 100) guard the payload (n <= 1). With n = 5
  // the first guard is false, so the check executes and counts but does
  // not trap; with n = 3 both guards hold and the failing payload traps.
  for (int64_t NValue : {5, 3}) {
    HandModule H;
    SymbolID N = H.scalar("n", ScalarType::Int);
    H.B.emitCopy(N, Value::intConst(NValue));
    H.B.emitCondCheck({CheckExpr(LinearExpr::term(N), 4),
                       CheckExpr(LinearExpr::term(N), 100)},
                      CheckExpr(LinearExpr::term(N), 1));
    H.B.emitPrint(Value::sym(N));
    H.B.emitRet();

    ExecResult E = interpret(H.M);
    EXPECT_EQ(E.DynChecks, 1u);
    EXPECT_EQ(E.DynCondChecks, 1u);
    if (NValue == 5) {
      ASSERT_EQ(E.St, ExecResult::Status::Ok) << E.FaultMessage;
      EXPECT_EQ(E.Output, (std::vector<std::string>{"5"}));
      EXPECT_EQ(E.DynInstrs, 3u);
    } else {
      EXPECT_EQ(E.St, ExecResult::Status::Trapped);
      EXPECT_EQ(E.FaultMessage, "range check failed: Check(n <= 1)");
      EXPECT_TRUE(E.Output.empty());
      EXPECT_EQ(E.DynInstrs, 1u);
    }
  }
}

TEST(Interpreter, CheckEvaluatesLinearExpression) {
  // Check(2*i - n + 10 <= B) with i = 4, n = 3: the expression is 15, so
  // the check holds at B = 15 and traps at B = 14.
  for (int64_t Bound : {15, 14}) {
    HandModule H;
    SymbolID I = H.scalar("i", ScalarType::Int);
    H.scalar("j", ScalarType::Int);
    SymbolID N = H.scalar("n", ScalarType::Int);
    LinearExpr E = LinearExpr::term(I, 2) + LinearExpr::term(N, -1) +
                   LinearExpr::constant(10);
    H.B.emitCopy(I, Value::intConst(4));
    H.B.emitCopy(N, Value::intConst(3));
    H.B.emitCheck(CheckExpr(E, Bound));
    H.B.emitRet();

    ExecResult R = interpret(H.M);
    EXPECT_EQ(R.DynChecks, 1u);
    if (Bound == 15) {
      EXPECT_EQ(R.St, ExecResult::Status::Ok) << R.FaultMessage;
    } else {
      EXPECT_EQ(R.St, ExecResult::Status::Trapped);
      EXPECT_EQ(R.FaultMessage, "range check failed: Check(2*i - n <= 4)");
    }
  }
}

TEST(Interpreter, CallInLoopWithArrayAndScalarArgs) {
  const char *Src = R"(
program p
  real v(10)
  integer k
  do k = 1, 2000
    call bump(v, mod(k, 10) + 1, 0.5)
  end do
  print v(3)
  print total(v, 10)
end program
subroutine bump(a, j, d)
  real a(10), d
  integer j
  a(j) = a(j) + d
end subroutine
function total(a, n) : real
  real a(10), t
  integer n, i
  t = 0.0
  do i = 1, n
    t = t + a(i)
  end do
  return t
end function
)";
  ExecResult Naive = runNaive(Src);
  ASSERT_EQ(Naive.St, ExecResult::Status::Ok) << Naive.FaultMessage;
  EXPECT_EQ(Naive.Output, (std::vector<std::string>{"100", "1000"}));
  // 2000 calls x 4 subscript checks, 2 more for v(3), 10 x 2 in total().
  EXPECT_EQ(Naive.DynChecks, 8022u);
  ExecResult Opt = interpret(
      *compileWithScheme(Src, PlacementScheme::LLS).M);
  expectBehaviorPreserved(Naive, Opt, "LLS");
}

/// A two-trip loop whose body runs the one-term check pair
/// Check(-i <= 0), Check(i <= Upper), which the decoder fuses, followed by
/// an unpaired Check(2*i <= 100), then stores a(i) with a(0:9). The
/// header's `i < 2` and the exit's `i <= 3` feed their Br.
void buildFusedLoop(HandModule &H, int64_t Upper) {
  IRBuilder &B = H.B;
  SymbolID I = H.scalar("i", ScalarType::Int);
  ArrayShape Shape;
  Shape.Element = ScalarType::Int;
  Shape.Dims = {{0, 9}};
  SymbolID A = H.F->symbols().createArray("a", Shape);
  BlockID Head = B.createBlock("head")->id();
  BlockID Body = B.createBlock("body")->id();
  BlockID Exit = B.createBlock("exit")->id();
  BlockID Done = B.createBlock("done")->id();
  B.emitCopy(I, Value::intConst(0));
  B.emitJump(Head);
  B.setInsertBlock(H.F->block(Head));
  B.emitBr(B.emitBinary(Opcode::CmpLT, Value::sym(I), Value::intConst(2),
                        ScalarType::Bool),
           Body, Exit);
  B.setInsertBlock(H.F->block(Body));
  B.emitCheck(CheckExpr(LinearExpr::term(I, -1), 0));
  B.emitCheck(CheckExpr(LinearExpr::term(I), Upper));
  B.emitCheck(CheckExpr(LinearExpr::term(I, 2), 100));
  B.emitStore(A, {Value::sym(I)}, Value::sym(I));
  B.emitBinaryTo(I, Opcode::Add, Value::sym(I), Value::intConst(1));
  B.emitJump(Head);
  B.setInsertBlock(H.F->block(Exit));
  B.emitBr(B.emitBinary(Opcode::CmpLE, Value::sym(I), Value::intConst(3),
                        ScalarType::Bool),
           Done, Done);
  B.setInsertBlock(H.F->block(Done));
  B.emitRet();
}

TEST(Interpreter, FusedOpsStopAtEveryStepLimitLikeUnfusedOps) {
  // Status and counters for MaxSteps = 0, 1, ..., 28, recorded with the
  // interpreter that ran every op on its own. The limit lands between the
  // halves of the fused check pair at 5 and 15.
  using S = ExecResult::Status;
  struct Row {
    S St;
    uint64_t Instrs, Checks;
  };
  const Row Rows[] = {
      {S::StepLimit, 0, 0},  {S::StepLimit, 1, 0},  {S::StepLimit, 2, 0},
      {S::StepLimit, 3, 0},  {S::StepLimit, 4, 0},  {S::StepLimit, 4, 1},
      {S::StepLimit, 4, 2},  {S::StepLimit, 4, 3},  {S::StepLimit, 7, 3},
      {S::StepLimit, 7, 3},  {S::StepLimit, 7, 3},  {S::StepLimit, 8, 3},
      {S::StepLimit, 9, 3},  {S::StepLimit, 10, 3}, {S::StepLimit, 11, 3},
      {S::StepLimit, 11, 4}, {S::StepLimit, 11, 5}, {S::StepLimit, 11, 6},
      {S::StepLimit, 14, 6}, {S::StepLimit, 14, 6}, {S::StepLimit, 14, 6},
      {S::StepLimit, 15, 6}, {S::StepLimit, 16, 6}, {S::StepLimit, 17, 6},
      {S::StepLimit, 18, 6}, {S::StepLimit, 19, 6}, {S::StepLimit, 20, 6},
      {S::Ok, 21, 6},        {S::Ok, 21, 6},
  };
  HandModule H;
  buildFusedLoop(H, 9);
  ExecResult Full = interpret(H.M);
  ASSERT_EQ(Full.St, S::Ok) << Full.FaultMessage;
  ASSERT_EQ(Full.DynInstrs + Full.DynChecks + 2, std::size(Rows));
  for (uint64_t Max = 0; Max != std::size(Rows); ++Max) {
    InterpOptions IO;
    IO.MaxSteps = Max;
    ExecResult E = interpret(H.M, IO);
    const Row &Want = Rows[Max];
    EXPECT_EQ(E.St, Want.St) << "MaxSteps=" << Max;
    EXPECT_EQ(E.DynInstrs, Want.Instrs) << "MaxSteps=" << Max;
    EXPECT_EQ(E.DynChecks, Want.Checks) << "MaxSteps=" << Max;
    EXPECT_EQ(E.FaultMessage,
              Want.St == S::StepLimit ? "step limit exceeded" : "")
        << "MaxSteps=" << Max;
  }
}

TEST(Interpreter, FusedPairSecondHalfTrapsOnItsOwnSite) {
  // With Check(i <= 0) as the pair's second half, i = 1 passes the first
  // half and fails the second: the trap names the second check, both
  // halves count, and each half reports to its own profile site.
  HandModule H;
  buildFusedLoop(H, 0);
  obs::ExecutionProfile Prof;
  Prof.attach(H.M);
  InterpOptions IO;
  IO.Profile = &Prof;
  ExecResult E = interpret(H.M, IO);
  EXPECT_EQ(E.St, ExecResult::Status::Trapped);
  EXPECT_EQ(E.FaultMessage, "range check failed: Check(i <= 0)");
  EXPECT_EQ(E.DynChecks, 5u); // three at i = 0, both halves at i = 1
  EXPECT_EQ(E.DynInstrs, 11u);

  const std::vector<obs::CheckSiteProfile> &Sites =
      Prof.functions()[0].Sites;
  ASSERT_EQ(Sites.size(), 3u);
  const uint64_t Hits[] = {2, 2, 1}, Traps[] = {0, 1, 0};
  for (size_t K = 0; K != Sites.size(); ++K) {
    EXPECT_EQ(Sites[K].Index, K);
    EXPECT_EQ(Sites[K].Hits, Hits[K]) << Sites[K].CheckStr;
    EXPECT_EQ(Sites[K].Traps, Traps[K]) << Sites[K].CheckStr;
  }
  EXPECT_EQ(Prof.trappedRuns(), 1u);
}

/// The definition a one-term check must match: Coeff * X <= Bound, with
/// the product taken exactly.
bool oneTermHolds(int64_t Coeff, int64_t X, int64_t Bound) {
  return __int128(Coeff) * X <= Bound;
}

TEST(Interpreter, OneTermCheckMatchesExactDefinition) {
  // The decoder turns a one-term check into an interval test on x, alone
  // or fused as either half of a pair; an empty interval stays a plain
  // check. Each form is run on every value and compared to the definition.
  constexpr int64_t Min = std::numeric_limits<int64_t>::min();
  constexpr int64_t Max = std::numeric_limits<int64_t>::max();
  const int64_t Coeffs[] = {1, -1, 2, -2, 3, -7, 1000000007, Max, Min, -Max};
  const int64_t Bounds[] = {Min, Min + 1, Min / 2, -1000000, -10, -1, 0,
                            1, 9, 10, 1000000, Max / 3, Max - 1, Max};
  std::mt19937_64 Rng(20251017);
  uint64_t Cases = 0, Never = 0;
  for (int64_t C : Coeffs) {
    for (int64_t B : Bounds) {
      std::vector<int64_t> Xs = {Min, Min + 1, -2, -1, 0, 1, 2, Max - 1, Max};
      // Values around the boundary B / C and around Min / C and Max / C,
      // where an off-by-one would show. (Min / -1 does not fit in int64,
      // so the quotients are taken in 128 bits.)
      for (__int128 Num : {B, Min, Max})
        for (int D = -3; D <= 3; ++D) {
          __int128 X = Num / C + D;
          if (X >= Min && X <= Max)
            Xs.push_back(static_cast<int64_t>(X));
        }
      for (int K = 0; K != 40; ++K)
        Xs.push_back(static_cast<int64_t>(Rng()));

      // x = X, then the tested check alone, before or after an
      // always-true one-term check.
      CheckExpr Tested(LinearExpr::term(0, C), B);
      CheckExpr True(LinearExpr::term(0), Max);
      const std::vector<CheckExpr> Forms[] = {
          {Tested}, {Tested, True}, {True, Tested}};
      bool HoldsSomewhere = false;
      for (const std::vector<CheckExpr> &Form : Forms) {
        HandModule H;
        SymbolID XSym = H.scalar("x", ScalarType::Int);
        ASSERT_EQ(XSym, 0u);
        H.B.emitCopy(XSym, Value::intConst(0));
        for (const CheckExpr &Chk : Form)
          H.B.emitCheck(Chk);
        H.B.emitRet();
        Value &Init = H.F->block(0)->instructions()[0].Operands[0];
        for (int64_t X : Xs) {
          Init = Value::intConst(X);
          bool Want = oneTermHolds(C, X, B);
          HoldsSomewhere |= Want;
          ExecResult E = interpret(H.M);
          EXPECT_EQ(E.St, Want ? ExecResult::Status::Ok
                               : ExecResult::Status::Trapped)
              << C << " * " << X << " <= " << B << " in a form of "
              << Form.size() << " checks";
          ++Cases;
        }
      }
      Never += !HoldsSomewhere;
    }
  }
  EXPECT_GT(Never, 0u); // e.g. -1 * x <= INT64_MIN holds for no int64 x
  EXPECT_GT(Cases, 10000u);
}

TEST(Interpreter, CheckArithmeticIsExact) {
  // Checks and guards are judged by the exact value of their sum, even
  // where a product or a partial sum leaves int64 (or 128 bits): a check
  // fails exactly when the true value exceeds its bound, and a guard holds
  // exactly when the true value does not.
  constexpr int64_t Min = std::numeric_limits<int64_t>::min();
  constexpr int64_t Max = std::numeric_limits<int64_t>::max();
  constexpr int64_t Big = int64_t(1) << 62;
  // Symbols by ID: n, m, k hold 2^62; lo and a, b, c hold INT64_MIN.
  const char *Names[] = {"n", "m", "k", "lo", "a", "b", "c"};
  const int64_t Values[] = {Big, Big, Big, Min, Min, Min, Min};
  enum : SymbolID { N, M, K, Lo, A, B, C };
  auto T = [](SymbolID S, int64_t Coeff = 1) {
    return LinearExpr::term(S, Coeff);
  };
  struct Case {
    const char *Name;
    std::vector<CheckExpr> Guards; // empty: a plain Check
    CheckExpr Payload;
    bool Traps;
  };
  const Case Cases[] = {
      {"one-term product past int64", {}, CheckExpr(T(N, 2), 10), true},
      {"one-term product at INT64_MIN", {}, CheckExpr(T(N, -2), -1), false},
      {"term-loop product past int64", {}, CheckExpr(T(N, 2) + T(M), 10),
       true},
      {"partial sum past int64", {}, CheckExpr(T(N) + T(M), 10), true},
      // n + m leaves int64, n + m - k = 2^62 does not.
      {"partial sum past int64 and back", {},
       CheckExpr(T(N) + T(M) + T(K, -1), Big), false},
      {"sum past 2^127", {}, CheckExpr(T(A, Min) + T(B, Min), Max), true},
      {"sum below -2^127", {},
       CheckExpr(T(A, Max) + T(B, Max) + T(C, Max), Min), false},
      // The entry guard of `do i = 1, lo` with lo = INT64_MIN: -lo is
      // 2^63, so the loop does not run and its hoisted check is skipped.
      {"guard past int64 fails", {CheckExpr(T(Lo, -1), -1)},
       CheckExpr(T(N, 2), 10), false},
      {"guard past int64 holds", {CheckExpr(T(Lo, 2), 0)},
       CheckExpr(T(N, 2), 10), true},
      {"guard fails", {CheckExpr(T(N), 0)}, CheckExpr(T(N, 2), 10), false},
      // -lo leaves int64, -lo - n = 2^62 does not.
      {"guard holds, payload past int64 and back", {CheckExpr(T(N), Big)},
       CheckExpr(T(Lo, -1) + T(N, -1), Big), false},
  };
  for (const Case &Cse : Cases) {
    HandModule H;
    for (SymbolID S = 0; S != std::size(Names); ++S) {
      ASSERT_EQ(H.scalar(Names[S], ScalarType::Int), S);
      H.B.emitCopy(S, Value::intConst(Values[S]));
    }
    if (Cse.Guards.empty())
      H.B.emitCheck(Cse.Payload);
    else
      H.B.emitCondCheck(Cse.Guards, Cse.Payload);
    H.B.emitRet();
    ExecResult E = interpret(H.M);
    EXPECT_EQ(E.St, Cse.Traps ? ExecResult::Status::Trapped
                              : ExecResult::Status::Ok)
        << Cse.Name << ": " << E.FaultMessage;
    EXPECT_EQ(E.DynChecks, 1u) << Cse.Name;
  }
}

TEST(Interpreter, IntegerArithmeticWrapsWithoutFaulting) {
  // Overflowing integer arithmetic wraps as two's complement does;
  // INT64_MIN / -1 is INT64_MIN and its remainder is 0.
  constexpr int64_t Min = std::numeric_limits<int64_t>::min();
  constexpr int64_t Max = std::numeric_limits<int64_t>::max();
  HandModule H;
  SymbolID A = H.scalar("a", ScalarType::Int);
  H.B.emitCopy(A, Value::intConst(Min));
  auto Print = [&](Opcode Op, Value L, Value R) {
    H.B.emitPrint(H.B.emitBinary(Op, L, R, ScalarType::Int));
  };
  Print(Opcode::Div, Value::sym(A), Value::intConst(-1));
  Print(Opcode::Mod, Value::sym(A), Value::intConst(-1));
  Print(Opcode::Mul, Value::intConst(2), Value::intConst(Max));
  Print(Opcode::Add, Value::intConst(Max), Value::intConst(1));
  Print(Opcode::Sub, Value::sym(A), Value::intConst(1));
  H.B.emitPrint(H.B.emitUnary(Opcode::Neg, Value::sym(A), ScalarType::Int));
  H.B.emitRet();
  ExecResult E = interpret(H.M);
  ASSERT_EQ(E.St, ExecResult::Status::Ok) << E.FaultMessage;
  const std::string MinS = std::to_string(Min), MaxS = std::to_string(Max);
  EXPECT_EQ(E.Output, (std::vector<std::string>{MinS, "0", "-2", MinS, MaxS,
                                                MinS}));
}

} // namespace
