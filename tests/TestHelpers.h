//===----------------------------------------------------------------------===//
///
/// \file
/// Shared helpers for the test suite: compile mini-Fortran snippets, run
/// them, and assert behaviour preservation between naive and optimized
/// builds (the paper's correctness criterion from section 3).
///
//===----------------------------------------------------------------------===//

#ifndef NASCENT_TESTS_TESTHELPERS_H
#define NASCENT_TESTS_TESTHELPERS_H

#include "driver/Pipeline.h"
#include "interp/Interpreter.h"
#include "ir/IRPrinter.h"

#include <gtest/gtest.h>

namespace nascent {
namespace test {

/// Compiles \p Source, failing the test on front-end errors.
inline CompileResult compileOrDie(const std::string &Source,
                                  const PipelineOptions &Opts = {}) {
  CompileResult R = compileSource(Source, Opts);
  EXPECT_TRUE(R.Success) << R.Diags.render();
  return R;
}

/// Compiles with a given scheme (PRX checks, all implications). The
/// trap-safety auditor runs over the (original, optimized) pair and any
/// finding fails the test: every scheme/mode an optimizer test exercises
/// is also statically proved trap-safe.
inline CompileResult compileWithScheme(const std::string &Source,
                                       PlacementScheme Scheme,
                                       CheckSource Src = CheckSource::PRX,
                                       ImplicationMode Mode =
                                           ImplicationMode::All) {
  PipelineOptions PO;
  PO.Opt.Scheme = Scheme;
  PO.Opt.Implications = Mode;
  PO.Source = Src;
  PO.Audit = true;
  CompileResult R = compileOrDie(Source, PO);
  EXPECT_TRUE(R.Audit.clean())
      << placementSchemeName(Scheme) << ": " << R.Audit.render();
  return R;
}

/// Naive baseline compile (checks inserted, no optimization).
inline CompileResult compileNaive(const std::string &Source,
                                  CheckSource Src = CheckSource::PRX) {
  PipelineOptions PO;
  PO.Optimize = false;
  PO.Source = Src;
  return compileOrDie(Source, PO);
}

/// The paper's behaviour-preservation criterion:
///  (1) the optimized program traps iff the unoptimized one traps, and
///  (2) a violation is detected no later, so the optimized output must be
///      a prefix of the naive output (equal when no trap occurs).
inline void expectBehaviorPreserved(const ExecResult &Naive,
                                    const ExecResult &Opt,
                                    const std::string &Label) {
  ASSERT_NE(Naive.St, ExecResult::Status::HardFault)
      << Label << ": naive run hard-faulted: " << Naive.FaultMessage;
  ASSERT_NE(Opt.St, ExecResult::Status::HardFault)
      << Label << ": optimized run hard-faulted (optimizer bug): "
      << Opt.FaultMessage;
  EXPECT_EQ(Naive.St, Opt.St) << Label << ": trap behaviour changed; naive='"
                              << Naive.FaultMessage << "' opt='"
                              << Opt.FaultMessage << "'";
  if (Naive.St == ExecResult::Status::Ok) {
    EXPECT_EQ(Naive.Output, Opt.Output) << Label << ": output changed";
  } else {
    // Traps may fire earlier in the optimized program: the printed output
    // must be a prefix of the naive output.
    ASSERT_LE(Opt.Output.size(), Naive.Output.size()) << Label;
    for (size_t K = 0; K != Opt.Output.size(); ++K)
      EXPECT_EQ(Opt.Output[K], Naive.Output[K]) << Label << " line " << K;
  }
}

/// Compiles and runs under every scheme, asserting behaviour preservation
/// and returning the dynamic check count per scheme (index by scheme).
inline void expectAllSchemesPreserveBehavior(const std::string &Source,
                                             CheckSource Src =
                                                 CheckSource::PRX) {
  CompileResult Naive = compileNaive(Source, Src);
  ExecResult NaiveRun = interpret(*Naive.M);
  for (PlacementScheme Scheme :
       {PlacementScheme::NI, PlacementScheme::CS, PlacementScheme::LNI,
        PlacementScheme::SE, PlacementScheme::LI, PlacementScheme::LLS,
        PlacementScheme::ALL}) {
    for (ImplicationMode Mode :
         {ImplicationMode::All, ImplicationMode::CrossFamilyOnly,
          ImplicationMode::None}) {
      CompileResult Opt = compileWithScheme(Source, Scheme, Src, Mode);
      ExecResult OptRun = interpret(*Opt.M);
      std::string Label = std::string(placementSchemeName(Scheme)) + "/" +
                          (Src == CheckSource::PRX ? "PRX" : "INX") +
                          "/mode" + std::to_string(static_cast<int>(Mode));
      expectBehaviorPreserved(NaiveRun, OptRun, Label);
      // Optimization must never increase the dynamic check count beyond
      // the naive program... except SE/LNI/ALL, which the paper's own
      // Figure 5 shows can add checks on some paths.
      if (Scheme != PlacementScheme::SE && Scheme != PlacementScheme::LNI &&
          Scheme != PlacementScheme::ALL) {
        EXPECT_LE(OptRun.DynChecks, NaiveRun.DynChecks) << Label;
      }
    }
  }
}

/// Decisions of kind \p K that pass \p P made during one compile, read
/// from its lifecycle event log (the only per-decision record).
inline size_t decisions(const CompileResult &R, obs::LifecycleKind K,
                        obs::LifecyclePass P) {
  return R.Provenance.count(K, P);
}

/// Events of one compile carrying justification \p Why.
inline size_t decisionsWhy(const CompileResult &R, obs::JustificationId Why) {
  size_t N = 0;
  for (const obs::LifecycleEvent &E : R.Provenance.events())
    if (E.Justification == Why)
      ++N;
  return N;
}

} // namespace test
} // namespace nascent

#endif // NASCENT_TESTS_TESTHELPERS_H
