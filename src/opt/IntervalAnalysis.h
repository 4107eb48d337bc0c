//===----------------------------------------------------------------------===//
///
/// \file
/// Value-range (interval) analysis and compile-time check elimination in
/// the style of the abstract-interpretation school the paper contrasts
/// itself with (section 5: Cousot & Halbwachs, Harrison, the Karlsruhe
/// and Alsys Ada compilers). These algorithms "take advantage only of
/// completely redundant checks ... their main weakness is that they do
/// not attempt to reduce the run time overhead of checks which cannot be
/// evaluated at compile time" -- implementing them makes that contrast
/// measurable (scheme AI, bench/ablation_interval).
///
//===----------------------------------------------------------------------===//

#ifndef NASCENT_OPT_INTERVALANALYSIS_H
#define NASCENT_OPT_INTERVALANALYSIS_H

#include "ir/Function.h"
#include "obs/Provenance.h"
#include "support/Diagnostics.h"

#include <cstdint>
#include <limits>

namespace nascent {

class LoopInfo;

/// A (possibly unbounded) integer interval [Lo, Hi].
struct Interval {
  static constexpr int64_t NegInf = std::numeric_limits<int64_t>::min();
  static constexpr int64_t PosInf = std::numeric_limits<int64_t>::max();

  int64_t Lo = NegInf;
  int64_t Hi = PosInf;

  static Interval top() { return {NegInf, PosInf}; }
  static Interval constant(int64_t C) { return {C, C}; }

  bool isTop() const { return Lo == NegInf && Hi == PosInf; }
  bool boundedBelow() const { return Lo != NegInf; }
  bool boundedAbove() const { return Hi != PosInf; }

  /// Union hull.
  Interval hull(const Interval &O) const {
    return {Lo < O.Lo ? Lo : O.Lo, Hi > O.Hi ? Hi : O.Hi};
  }

  friend bool operator==(const Interval &A, const Interval &B) {
    return A.Lo == B.Lo && A.Hi == B.Hi;
  }
  friend bool operator!=(const Interval &A, const Interval &B) {
    return !(A == B);
  }

  /// Saturating arithmetic on interval endpoints.
  static int64_t satAdd(int64_t A, int64_t B);
  static int64_t satMul(int64_t A, int64_t B);

  Interval add(const Interval &O) const;
  Interval sub(const Interval &O) const;
  Interval negate() const;
  Interval mulConst(int64_t C) const;
  Interval minWith(const Interval &O) const;
  Interval maxWith(const Interval &O) const;
  Interval absValue() const;
};

/// Statistics of one interval-elimination run. Its decisions (deleted and
/// trapped checks) are lifecycle events; this counts what it left alone.
struct IntervalStats {
  unsigned ChecksUnknown = 0; ///< checks the ranges cannot decide
};

/// Verdict of the interval analysis for one instruction position.
enum class IntervalVerdict : uint8_t {
  NotACheck,    ///< not a plain Check, or the block is unreachable
  Unknown,      ///< a check the ranges cannot decide
  AlwaysPasses, ///< a check proved redundant on every execution reaching it
  AlwaysFails,  ///< a check proved violating on every execution reaching it
};

/// Flow-sensitive verdicts for every plain Check of one function, indexed
/// by (block id, instruction index) of the analysed (unmutated) IR.
struct IntervalCheckClassification {
  std::vector<std::vector<IntervalVerdict>> PerInst;

  IntervalVerdict at(BlockID B, size_t Idx) const {
    if (B >= PerInst.size() || Idx >= PerInst[B].size())
      return IntervalVerdict::NotACheck;
    return PerInst[B][Idx];
  }
};

/// Runs the interval analysis over \p F without mutating it and classifies
/// every plain Check instruction. Predecessor lists must be current. The
/// trap-safety auditor uses this to certify interval-discharged deletions
/// and compile-time traps independently of the optimizer's own run.
/// \p CachedLoops, when given, is a loop forest already computed for this
/// exact IR (shared by the artifact cache); otherwise one is built.
IntervalCheckClassification
classifyChecksByIntervals(const Function &F,
                          const LoopInfo *CachedLoops = nullptr);

/// Runs the interval analysis over \p F and deletes every check the
/// value ranges prove redundant; checks proved to always fail become
/// TRAP terminators and are reported into \p Diags. The analysis uses
/// do-loop metadata to bound index variables inside their loops.
/// Eliminated / Trapped lifecycle events (the Trap inherits the check's
/// tag) go to \p PR.
IntervalStats eliminateChecksByIntervals(Function &F, DiagnosticEngine &Diags,
                                         obs::ProvenanceRecorder &PR,
                                         const LoopInfo *CachedLoops = nullptr);

} // namespace nascent

#endif // NASCENT_OPT_INTERVALANALYSIS_H
