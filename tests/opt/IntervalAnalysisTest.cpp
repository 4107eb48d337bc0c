//===----------------------------------------------------------------------===//
///
/// \file
/// Interval-analysis tests (the AI extension scheme): interval algebra,
/// static check discharge, loop-index refinement, soundness around
/// unknown values, and the paper's section 5 prediction that compile-time
/// -only elimination removes far fewer checks than the inserting schemes.
///
//===----------------------------------------------------------------------===//

#include "opt/IntervalAnalysis.h"

#include "TestHelpers.h"
#include "suite/Suite.h"

#include <gtest/gtest.h>

using namespace nascent;
using namespace nascent::test;

namespace {

TEST(Interval, Algebra) {
  Interval A{2, 5}, B{-1, 3};
  EXPECT_EQ(A.add(B), (Interval{1, 8}));
  EXPECT_EQ(A.sub(B), (Interval{-1, 6}));
  EXPECT_EQ(A.negate(), (Interval{-5, -2}));
  EXPECT_EQ(A.mulConst(3), (Interval{6, 15}));
  EXPECT_EQ(A.mulConst(-2), (Interval{-10, -4}));
  EXPECT_EQ(A.hull(B), (Interval{-1, 5}));
  EXPECT_EQ(A.minWith(B), (Interval{-1, 3}));
  EXPECT_EQ(A.maxWith(B), (Interval{2, 5}));
  EXPECT_EQ((Interval{-4, 3}).absValue(), (Interval{0, 4}));
}

TEST(Interval, SaturationAtInfinity) {
  Interval Top = Interval::top();
  EXPECT_TRUE(Top.add(Interval::constant(5)).isTop());
  EXPECT_TRUE(Top.negate().isTop());
  Interval HalfOpen{0, Interval::PosInf};
  Interval Shifted = HalfOpen.add(Interval::constant(10));
  EXPECT_EQ(Shifted.Lo, 10);
  EXPECT_FALSE(Shifted.boundedAbove());
  // Multiplication by a negative constant flips the unbounded side.
  Interval Flipped = HalfOpen.mulConst(-2);
  EXPECT_FALSE(Flipped.boundedBelow());
  EXPECT_EQ(Flipped.Hi, 0);
}

/// One interval-elimination run: the checks it left alone, and its
/// decisions as lifecycle events.
struct AIRun {
  IntervalStats Stats;
  obs::ProvenanceRecorder Events;

  size_t provedRedundant() const {
    return Events.count(obs::LifecycleKind::Eliminated,
                        obs::LifecyclePass::IntervalAnalysis);
  }
};

AIRun runAI(const std::string &Src, Module **OutM = nullptr,
            CompileResult *Keep = nullptr) {
  static CompileResult Storage;
  CompileResult &R = Keep ? *Keep : Storage;
  R = compileNaive(Src);
  DiagnosticEngine D;
  AIRun Run;
  Run.Stats = eliminateChecksByIntervals(*R.M->entry(), D, Run.Events);
  if (OutM)
    *OutM = R.M.get();
  return Run;
}

TEST(IntervalAnalysis, DischargesConstantBoundedLoops) {
  // i in [1, 8] and the array has 10 elements: every check discharges.
  Module *M = nullptr;
  CompileResult Keep;
  AIRun S = runAI(R"(
program p
  real a(10)
  integer i
  do i = 1, 8
    a(i) = 1.0
  end do
  print a(1)
end program
)",
                          &M, &Keep);
  EXPECT_GT(S.provedRedundant(), 0u);
  EXPECT_EQ(S.Stats.ChecksUnknown, 0u);
  ExecResult E = interpret(*M);
  EXPECT_EQ(E.St, ExecResult::Status::Ok);
  EXPECT_EQ(E.DynChecks, 0u);
}

TEST(IntervalAnalysis, SymbolicBoundsStayUnknown) {
  // n is a runtime value (from a load): checks cannot be discharged.
  CompileResult Keep;
  AIRun S = runAI(R"(
program p
  real a(10)
  integer idx(3), n, i
  idx(1) = 8
  n = idx(1)
  do i = 1, n
    a(i) = 1.0
  end do
  print a(1)
end program
)",
                          nullptr, &Keep);
  EXPECT_GT(S.Stats.ChecksUnknown, 0u);
}

TEST(IntervalAnalysis, ProvesViolations) {
  PipelineOptions PO;
  PO.Opt.Scheme = PlacementScheme::AI;
  CompileResult R = compileSource(R"(
program p
  real a(10)
  integer i
  i = 4
  i = i + 20
  a(i) = 1.0
end program
)",
                                  PO);
  ASSERT_TRUE(R.Success);
  bool Warned = false;
  for (const Diagnostic &D : R.Diags.diagnostics())
    if (D.Message.find("value-range") != std::string::npos)
      Warned = true;
  EXPECT_TRUE(Warned);
  ExecResult E = interpret(*R.M);
  EXPECT_EQ(E.St, ExecResult::Status::Trapped);
}

TEST(IntervalAnalysis, ModBoundsDischargePeriodicSubscripts) {
  Module *M = nullptr;
  CompileResult Keep;
  AIRun S = runAI(R"(
program p
  real a(8)
  integer i, k
  do i = 1, 50
    k = mod(i, 8) + 1
    a(k) = 1.0
  end do
  print a(1)
end program
)",
                          &M, &Keep);
  // mod(i, 8) with i >= 0 lies in [0, 7], so k in [1, 8] discharges both
  // checks on a(k).
  EXPECT_GT(S.provedRedundant(), 0u);
  ExecResult E = interpret(*M);
  EXPECT_EQ(E.DynChecks, 0u);
}

/// One letter per plain Check of \p F in block and instruction order: P
/// passes, F fails, U unknown, - unreachable.
std::string verdictString(const Function &F) {
  IntervalCheckClassification C = classifyChecksByIntervals(F);
  std::string Out;
  for (const auto &BB : F)
    for (size_t I = 0; I != BB->size(); ++I) {
      if (BB->instructions()[I].Op != Opcode::Check)
        continue;
      switch (C.at(BB->id(), I)) {
      case IntervalVerdict::NotACheck:
        Out += '-';
        break;
      case IntervalVerdict::Unknown:
        Out += 'U';
        break;
      case IntervalVerdict::AlwaysPasses:
        Out += 'P';
        break;
      case IntervalVerdict::AlwaysFails:
        Out += 'F';
        break;
      }
    }
  return Out;
}

TEST(IntervalAnalysis, VerdictsOverInterleavedRealAndArraySymbols) {
  // The solver's states cover only the integer scalars, so this pins its
  // verdicts on a shape the suite only brushes: integer scalars declared
  // between reals and arrays, a real parameter next to an integer one, a
  // while loop whose counter needs widening (its lower bound holds, its
  // upper one is lost, so big(k) stays unknown where 64 unwidened rounds
  // would bound k below 200), a subscript read from a real (unknown), a
  // violation proved under a branch, and a routine with no integer
  // symbol at all, whose checks are still judged.
  CompileResult R = compileNaive(R"(program p
  real a(20), r
  integer b(30), n
  r = 2.5
  n = 7
  call mixed(a, r, b, n)
  call reals(a, r)
  print a(1)
end program

subroutine mixed(a, x, b, n)
  real s, a(20), x, t
  integer k, b(30), j
  real u, c(5, 4)
  integer big(200)
  integer i, m, q, n
  real v
  s = x * 2.0
  k = 1
  while (k < n) do
    b(k) = k
    a(k + 1) = s
    k = k + 2
  end while
  b(k) = 0
  big(k) = 1
  do i = 1, 10
    t = real(i) + s
    a(i + 10) = t
    c(mod(i, 5) + 1, 2) = t
    m = i * 3
    b(m) = i
  end do
  j = int(x)
  a(j) = x
  q = 0
  u = 1.0
  if (n > 100) then
    b(q + 40) = 1
  end if
  v = a(2)
  c(q + 1, 4) = v + u
  b(m - 29) = 2
end subroutine

subroutine reals(a, x)
  real a(20), x, y
  y = x
  a(3) = y
  a(21) = y
end subroutine
)");
  struct Expected {
    const char *Function;
    const char *Verdicts;
    unsigned Unknown;
    size_t Eliminated, Trapped, ChecksLeft;
  };
  const Expected Want[] = {
      {"p", "PP", 0, 2, 0, 0},
      {"mixed", "PUPUPUPUPPPPPPPUUUPFPPPPPPUU", 9, 18, 1, 9},
      {"reals", "PPPF", 0, 3, 1, 0},
  };
  for (const Expected &E : Want) {
    SCOPED_TRACE(E.Function);
    Function &F = *R.M->function(E.Function);
    EXPECT_EQ(verdictString(F), E.Verdicts);
    DiagnosticEngine D;
    obs::ProvenanceRecorder PR;
    IntervalStats St = eliminateChecksByIntervals(F, D, PR);
    EXPECT_EQ(St.ChecksUnknown, E.Unknown);
    EXPECT_EQ(PR.count(obs::LifecycleKind::Eliminated,
                       obs::LifecyclePass::IntervalAnalysis),
              E.Eliminated);
    EXPECT_EQ(PR.count(obs::LifecycleKind::Trapped), E.Trapped);
    size_t Left = 0;
    for (const auto &BB : F)
      for (const Instruction &I : BB->instructions())
        Left += I.isRangeCheck();
    EXPECT_EQ(Left, E.ChecksLeft);
  }
}

TEST(IntervalAnalysis, SchemePreservesBehaviorOnSuite) {
  for (const SuiteProgram &P : benchmarkSuite()) {
    SCOPED_TRACE(P.Name);
    ExecResult Naive = interpret(*compileNaive(P.Source).M);
    CompileResult R = compileWithScheme(P.Source, PlacementScheme::AI);
    ExecResult E = interpret(*R.M);
    expectBehaviorPreserved(Naive, E, std::string(P.Name) + "/AI");
  }
}

TEST(IntervalAnalysis, Section5Prediction) {
  // The paper: "we expect the number of checks eliminated by these
  // [compile-time-only] algorithms to be less than algorithms which
  // insert checks." AI must beat nothing and lose clearly to LLS overall.
  double TotalAI = 0, TotalLLS = 0, TotalNaive = 0;
  for (const SuiteProgram &P : benchmarkSuite()) {
    ExecResult Naive = interpret(*compileNaive(P.Source).M);
    ExecResult AI =
        interpret(*compileWithScheme(P.Source, PlacementScheme::AI).M);
    ExecResult LLS =
        interpret(*compileWithScheme(P.Source, PlacementScheme::LLS).M);
    EXPECT_LE(AI.DynChecks, Naive.DynChecks) << P.Name;
    TotalNaive += double(Naive.DynChecks);
    TotalAI += double(AI.DynChecks);
    TotalLLS += double(LLS.DynChecks);
  }
  double AIPct = 100.0 * (TotalNaive - TotalAI) / TotalNaive;
  double LLSPct = 100.0 * (TotalNaive - TotalLLS) / TotalNaive;
  EXPECT_LT(AIPct, LLSPct - 20.0)
      << "compile-time-only elimination should lose clearly to LLS";
}

} // namespace
