//===----------------------------------------------------------------------===//
///
/// \file
/// Instrumented-C back end tests: the emitted C compiles with the system
/// compiler, and running it produces exactly the interpreter's output,
/// exit status and dynamic counters — validating both the back end and,
/// independently, the interpreter (the paper's methodology was precisely
/// "translate to instrumented C, compile, run, count"). Where the compiler
/// supports it the C is built with -fsanitize=undefined and
/// -fno-sanitize-recover=all, so undefined behaviour in the emitted C,
/// such as a signed overflow, fails the test, and with -Wall -Werror, so
/// the emitted C stays warning-free.
///
//===----------------------------------------------------------------------===//

#include "cbackend/CEmitter.h"

#include "TestHelpers.h"
#include "suite/Suite.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>

using namespace nascent;
using namespace nascent::test;

namespace {

bool haveCC() {
  static int Have = -1;
  if (Have < 0)
    Have = std::system("cc --version > /dev/null 2>&1") == 0 ? 1 : 0;
  return Have == 1;
}

/// \p Flags (with a leading space) when cc accepts them, else empty.
std::string ifAccepted(const std::string &Flags) {
  return std::system(("echo 'int main(void) { return 0; }' | cc -x c" +
                      Flags + " -o /dev/null - > /dev/null 2>&1")
                         .c_str()) == 0
             ? Flags
             : "";
}

/// The sanitizer and warning flags to build emitted C with; each set is
/// left out when cc lacks it.
const std::string &compileFlags() {
  static const std::string Flags =
      ifAccepted(" -fsanitize=undefined -fno-sanitize-recover=all") +
      ifAccepted(" -Wall -Werror");
  return Flags;
}

struct CRun {
  int ExitCode = -1;
  std::vector<std::string> Stdout;
  uint64_t Instrs = 0, Checks = 0, CondChecks = 0;
  bool Trapped = false;
  std::string Halt;       ///< the trap or fault message
  bool Sanitized = false; ///< the sanitizer reported an error
};

/// Emits, compiles, and runs \p M; fails the test on compile errors.
CRun compileAndRunC(const Module &M, const std::string &Tag) {
  std::string Dir = ::testing::TempDir();
  std::string CPath = Dir + "/nck_" + Tag + ".c";
  std::string Bin = Dir + "/nck_" + Tag + ".bin";
  std::string OutPath = Dir + "/nck_" + Tag + ".out";
  std::string ErrPath = Dir + "/nck_" + Tag + ".err";

  {
    std::ofstream Out(CPath);
    Out << emitModuleToC(M);
  }
  std::string Compile = "cc -O1" + compileFlags() + " -o " + Bin + " " +
                        CPath + " 2> " + ErrPath;
  int CC = std::system(Compile.c_str());
  CRun R;
  if (CC != 0) {
    std::stringstream Diagnostics;
    Diagnostics << std::ifstream(ErrPath).rdbuf();
    ADD_FAILURE() << "C compilation failed for " << Tag << ":\n"
                  << Diagnostics.str();
    return R;
  }

  int Rc = std::system((Bin + " > " + OutPath + " 2> " + ErrPath).c_str());
  R.ExitCode = WEXITSTATUS(Rc);

  std::ifstream In(OutPath);
  std::string Line;
  while (std::getline(In, Line))
    R.Stdout.push_back(Line);

  std::ifstream Err(ErrPath);
  while (std::getline(Err, Line)) {
    for (const char *Tag : {"[nascent-trap] ", "[nascent-fault] "})
      if (Line.rfind(Tag, 0) == 0)
        R.Halt = Line.substr(std::strlen(Tag));
    if (Line.find("[nascent-trap]") != std::string::npos)
      R.Trapped = true;
    if (Line.find("runtime error") != std::string::npos)
      R.Sanitized = true;
    unsigned long long I, C, Q;
    if (std::sscanf(Line.c_str(),
                    "[nascent-counts] instrs=%llu checks=%llu "
                    "condchecks=%llu",
                    &I, &C, &Q) == 3) {
      R.Instrs = I;
      R.Checks = C;
      R.CondChecks = Q;
    }
  }
  return R;
}

/// Compiles \p Source, runs it both ways and requires the same output,
/// outcome, message and counts: the emitted program exits 0 on Ok, 2 on a
/// trap and 3 on a hard fault. Returns the C run.
CRun expectMatchesInterpreter(const std::string &Source,
                              const PipelineOptions &PO,
                              const std::string &Tag) {
  CompileResult R = compileOrDie(Source, PO);
  ExecResult E = interpret(*R.M);
  CRun C = compileAndRunC(*R.M, Tag);
  EXPECT_FALSE(C.Sanitized) << Tag << ": undefined behaviour in emitted C";
  EXPECT_EQ(C.Stdout, E.Output) << Tag;
  EXPECT_EQ(C.Trapped, E.St == ExecResult::Status::Trapped) << Tag;
  EXPECT_EQ(C.ExitCode, E.St == ExecResult::Status::Ok        ? 0
                        : E.St == ExecResult::Status::Trapped ? 2
                                                              : 3)
      << Tag << ": " << E.FaultMessage;
  EXPECT_EQ(C.Halt, E.FaultMessage) << Tag;
  EXPECT_EQ(C.Instrs, E.DynInstrs) << Tag;
  EXPECT_EQ(C.Checks, E.DynChecks) << Tag;
  EXPECT_EQ(C.CondChecks, E.DynCondChecks) << Tag;
  return C;
}

std::string readProgram(const std::string &Name) {
  std::ifstream In(std::string(NASCENT_TEST_PROGRAMS_DIR) + "/" + Name +
                   ".mf");
  std::stringstream SS;
  SS << In.rdbuf();
  EXPECT_FALSE(SS.str().empty()) << Name;
  return SS.str();
}

const PlacementScheme AllSchemes[] = {
    PlacementScheme::NI,  PlacementScheme::CS,  PlacementScheme::LNI,
    PlacementScheme::SE,  PlacementScheme::LI,  PlacementScheme::LLS,
    PlacementScheme::ALL, PlacementScheme::MCM, PlacementScheme::AI};

TEST(CEmitter, ArithmeticAndControlFlow) {
  if (!haveCC())
    GTEST_SKIP() << "no system C compiler available";
  PipelineOptions PO;
  PO.Optimize = false;
  expectMatchesInterpreter(R"(
program p
  integer i, s
  real r
  s = 0
  do i = 1, 10, 2
    s = s + i * 2
  end do
  r = real(s) / 4.0
  print s
  print r
  print s > 10
end program
)",
                           PO, "arith");
}

TEST(CEmitter, ArraysAndCalls) {
  if (!haveCC())
    GTEST_SKIP() << "no system C compiler available";
  PipelineOptions PO;
  PO.Optimize = false;
  expectMatchesInterpreter(R"(
program p
  real v(3, 4)
  integer i, j
  do i = 1, 3
    do j = 1, 4
      v(i, j) = real(i * 10 + j)
    end do
  end do
  call scale(v)
  print v(2, 3)
  print total(v)
end program
subroutine scale(v)
  real v(3, 4)
  integer i, j
  do i = 1, 3
    do j = 1, 4
      v(i, j) = v(i, j) * 2.0
    end do
  end do
end subroutine
function total(v) : real
  real v(3, 4), s
  integer i, j
  s = 0.0
  do i = 1, 3
    do j = 1, 4
      s = s + v(i, j)
    end do
  end do
  return s
end function
)",
                           PO, "arrays");
}

TEST(CEmitter, TrapBehaviourMatches) {
  if (!haveCC())
    GTEST_SKIP() << "no system C compiler available";
  PipelineOptions PO;
  PO.Optimize = false;
  expectMatchesInterpreter(R"(
program p
  real a(5)
  integer i
  print 1
  i = 7
  a(i) = 0.0
  print 2
end program
)",
                           PO, "trap");
}

TEST(CEmitter, HardFaultMatches) {
  if (!haveCC())
    GTEST_SKIP() << "no system C compiler available";
  PipelineOptions PO;
  PO.Optimize = false;
  CRun C = expectMatchesInterpreter(R"(
program p
  integer k
  print 1
  k = input(0)
  print 5 / k
end program
function input(v) : integer
  integer v
  return v
end function
)",
                                    PO, "div_zero");
  EXPECT_EQ(C.Halt, "integer division by zero");
}

TEST(CEmitter, OptimizedProgramsMatchToo) {
  if (!haveCC())
    GTEST_SKIP() << "no system C compiler available";
  for (PlacementScheme S :
       {PlacementScheme::NI, PlacementScheme::SE, PlacementScheme::LLS}) {
    PipelineOptions PO;
    PO.Opt.Scheme = S;
    expectMatchesInterpreter(R"(
program p
  real a(30), b(30)
  integer n, i, k
  n = 20
  k = 7
  do i = 1, n
    a(i) = a(i) + b(k) * 0.5 + b(i)
  end do
  print a(3)
end program
)",
                             PO, std::string("opt") + placementSchemeName(S));
  }
}

TEST(CEmitter, SuiteProgramsMatchEndToEnd) {
  if (!haveCC())
    GTEST_SKIP() << "no system C compiler available";
  // The full methodology check on the whole suite, naive and under every
  // scheme: C execution == interpretation, counter for counter.
  for (const SuiteProgram &P : benchmarkSuite()) {
    PipelineOptions PO;
    PO.Optimize = false;
    expectMatchesInterpreter(P.Source, PO, std::string(P.Name) + "_naive");
    PO.Optimize = true;
    for (PlacementScheme S : AllSchemes) {
      PO.Opt.Scheme = S;
      expectMatchesInterpreter(P.Source, PO,
                               std::string(P.Name) + "_" +
                                   placementSchemeName(S));
    }
  }
}

TEST(CEmitter, OverflowingSubscriptsTrap) {
  if (!haveCC())
    GTEST_SKIP() << "no system C compiler available";
  // With n = 2^62, 2*n overflows int64: the naive check and the hoisted
  // Cond-check of LLS and ALL must still trap on Check(2*n <= 10), judged
  // by the exact value, rather than let the store run out of bounds.
  PipelineOptions PO;
  PO.Optimize = false;
  CRun C = expectMatchesInterpreter(readProgram("overflow_subscript"), PO,
                                    "overflow_subscript");
  EXPECT_EQ(C.ExitCode, 2);
  PO.Optimize = true;
  for (PlacementScheme S : {PlacementScheme::LLS, PlacementScheme::ALL}) {
    PO.Opt.Scheme = S;
    std::string Tag = std::string("overflow_loop_") + placementSchemeName(S);
    C = expectMatchesInterpreter(readProgram("overflow_loop"), PO, Tag);
    EXPECT_EQ(C.ExitCode, 2) << Tag;
  }
}

TEST(CEmitter, EmptyLoopAtInt64MinRuns) {
  if (!haveCC())
    GTEST_SKIP() << "no system C compiler available";
  // With n = INT64_MIN the loop never runs, so no build traps: the
  // hoisted check's entry guard -n <= -1 is false.
  auto Expect = [](const PipelineOptions &PO, const std::string &Tag) {
    CRun C = expectMatchesInterpreter(readProgram("overflow_loop_min"), PO,
                                      Tag);
    EXPECT_EQ(C.ExitCode, 0) << Tag;
    EXPECT_EQ(C.Stdout, std::vector<std::string>{"0"}) << Tag;
  };
  PipelineOptions PO;
  PO.Optimize = false;
  Expect(PO, "overflow_loop_min_naive");
  PO.Optimize = true;
  for (PlacementScheme S : AllSchemes) {
    PO.Opt.Scheme = S;
    Expect(PO, std::string("overflow_loop_min_") + placementSchemeName(S));
  }
}

TEST(CEmitter, LargeLocalArraysRun) {
  if (!haveCC())
    GTEST_SKIP() << "no system C compiler available";
  // integer a(4000000) is 32 MB: on the C stack it overflowed the usual
  // 8 MB limit (SIGSEGV) where the interpreter runs fine. Local arrays
  // are allocated at function entry instead.
  std::string Source = readProgram("large_array");
  PipelineOptions PO;
  PO.Optimize = false;
  CRun C = expectMatchesInterpreter(Source, PO, "large_array_naive");
  EXPECT_EQ(C.ExitCode, 0);
  EXPECT_EQ(C.Stdout, (std::vector<std::string>{"7998004000", "4000000"}));
  PO.Optimize = true;
  PO.Opt.Scheme = PlacementScheme::LLS;
  C = expectMatchesInterpreter(Source, PO, "large_array_LLS");
  EXPECT_EQ(C.ExitCode, 0);
}

TEST(CEmitter, RefusedArrayFaults) {
  if (!haveCC())
    GTEST_SKIP() << "no system C compiler available";
  // A 16 TB array fits int64 but not memory: the allocator refuses it
  // (Linux's default overcommit heuristic), and the emitted program
  // ends as the interpreter does, a hard fault naming the array.
  PipelineOptions PO;
  PO.Optimize = false;
  CRun C = expectMatchesInterpreter(readProgram("huge_array"), PO,
                                    "huge_array");
  EXPECT_EQ(C.ExitCode, 3);
  EXPECT_EQ(C.Halt, "cannot allocate array a (2000000000000 elements)");
}

TEST(CEmitter, Int64EdgeArithmeticMatches) {
  if (!haveCC())
    GTEST_SKIP() << "no system C compiler available";
  // Division, mod, abs, negation and products at INT64_MIN wrap the same
  // way in both paths, and int() of a real out of int64's range is
  // INT64_MIN in both. input() keeps the operands out of constant folding.
  PipelineOptions PO;
  PO.Optimize = false;
  CRun C = expectMatchesInterpreter(R"(
program p
  integer m, d
  real x
  m = input(-9223372036854775807 - 1)
  d = input(-1)
  print m / d
  print mod(m, d)
  print abs(m)
  print -m
  print m * d
  print m - 1
  x = real(input(1))
  x = x * 1.0e300
  print int(x)
  print int(-x)
  print int(x * x - x * x)
  print int(-2.5 * x / x)
end program
function input(v) : integer
  integer v
  return v
end function
)",
                                    PO, "int64_edges");
  const std::string Min = std::to_string(std::numeric_limits<int64_t>::min());
  EXPECT_EQ(C.Stdout, (std::vector<std::string>{Min, "0", Min, Min, Min,
                                                std::to_string(
                                                    std::numeric_limits<
                                                        int64_t>::max()),
                                                Min, Min, Min, "-2"}));
}

TEST(CEmitter, DeterministicOutput) {
  CompileResult R = compileNaive(findSuiteProgram("qcd")->Source);
  std::string A = emitModuleToC(*R.M);
  std::string B = emitModuleToC(*R.M);
  EXPECT_EQ(A, B);
  EXPECT_NE(A.find("fn_qcd"), std::string::npos);
  EXPECT_NE(A.find("nck_report"), std::string::npos);
}

} // namespace
