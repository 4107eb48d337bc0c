//===----------------------------------------------------------------------===//
///
/// \file
/// Optimization remarks: one structured record per per-check decision the
/// optimizer makes, in the spirit of LLVM's -Rpass stream. Remarks are a
/// view, not a record of their own: the passes write lifecycle events
/// (obs/Provenance.h), and a tool that wants remarks derives one per
/// decision event through a fixed (event kind, pass) -> RemarkKind table
/// (see remarkKindFor). The optimizer counts OptimizerStats through the
/// same table, so remark totals equal the stats by construction.
///
/// Residual remarks say "this surviving check executed N times" (the
/// paper's table-1 metric, per check instead of per program): they come
/// from the Residualized events, with counts from the per-site hits of an
/// ExecutionProfile the run streamed into.
///
//===----------------------------------------------------------------------===//

#ifndef NASCENT_OBS_REMARKS_H
#define NASCENT_OBS_REMARKS_H

#include "ir/Instruction.h"

#include <cstdint>
#include <optional>
#include <ostream>
#include <regex>
#include <string>
#include <vector>

namespace nascent {
namespace obs {

class ExecutionProfile;
class JsonWriter;
class ProvenanceRecorder;
struct LifecycleEvent;

/// What happened to a check. The first eight kinds map one-to-one onto
/// OptimizerStats fields; Residual marks a check that survived
/// optimization (emitted only when joining a run's profile counts).
enum class RemarkKind {
  Eliminated,         ///< deleted as redundant (availability)
  Strengthened,       ///< replaced by a stronger family member
  LcmInserted,        ///< inserted by lazy code motion placement
  CondInserted,       ///< conditional check hoisted to a preheader
  Rehoisted,          ///< preheader check re-hoisted to an outer loop
  CompileTimeDeleted, ///< constant check proved to pass, deleted
  CompileTimeTrap,    ///< constant check proved to fail, turned into Trap
  IntervalEliminated, ///< proved redundant by interval analysis
  Residual            ///< survived; carries a dynamic execution count
};

const char *remarkKindName(RemarkKind K);

/// One structured optimization remark.
struct Remark {
  RemarkKind Kind = RemarkKind::Eliminated;
  std::string Pass;     ///< emitting pass, e.g. "Elimination"
  std::string Function; ///< enclosing function name
  std::string Block;    ///< basic-block name at the decision point
  std::string CheckStr; ///< rendered check, e.g. "Check(i - n <= -1)"
  std::string FamilyStr;///< rendered family range-expression, e.g. "i - n"
  int64_t Bound = 0;    ///< range constant of the (new) check
  CheckOrigin Origin;   ///< source provenance (array, dim, bound side)
  std::string Justification; ///< the fact justifying the verdict
  uint64_t DynCount = 0;     ///< dynamic executions (Residual remarks)
  bool HasDynCount = false;
};

/// Collects remarks, optionally filtered by a family regex (matched
/// against the family expression and the originating array name, like
/// -Rpass's pass-name filter but over check families).
class RemarkCollector {
public:
  /// Keeps only remarks whose family string or array name matches
  /// \p FilterRegex (an ECMAScript regex; empty keeps everything).
  /// Returns false, with the reason in \p Err, when \p FilterRegex does
  /// not compile; the filter is then unchanged.
  bool setFilter(const std::string &FilterRegex, std::string *Err = nullptr);

  void emit(Remark R);

  const std::vector<Remark> &remarks() const { return All; }
  size_t count(RemarkKind K) const;

  /// Renders each remark as a human-readable line ("remark: ...").
  void renderText(std::ostream &OS) const;

  /// JSON array of remark objects.
  void writeJson(JsonWriter &W) const;
  std::string toJson() const;

private:
  std::optional<std::regex> Filter;
  std::vector<Remark> All;
};

/// The remark kind a lifecycle event stands for: SubsumedBy/Elimination
/// -> Eliminated, Strengthened/CheckStrengthening -> Strengthened,
/// Inserted/LazyCodeMotion -> LcmInserted, Inserted/PreheaderInsertion ->
/// CondInserted, Moved/PreheaderInsertion -> Rehoisted,
/// Eliminated/Elimination -> CompileTimeDeleted, Trapped/any pass ->
/// CompileTimeTrap, Eliminated/IntervalAnalysis -> IntervalEliminated.
/// Every other event (lowering, INX rewrites, unreachable tails, preheader
/// merges, residualization) is no decision remark.
std::optional<RemarkKind> remarkKindFor(const LifecycleEvent &E);

/// Appends one remark per decision event of \p PR to \p RC, in recording
/// order.
void collectDecisionRemarks(const ProvenanceRecorder &PR,
                            RemarkCollector &RC);

/// Appends one Residual remark per Residualized event of \p PR, with
/// DynCount taken from the hits of the matching check site in \p Profile
/// (0 for sites the run never reached).
void emitResidualCheckRemarks(const ProvenanceRecorder &PR,
                              const ExecutionProfile &Profile,
                              RemarkCollector &RC);

} // namespace obs
} // namespace nascent

#endif // NASCENT_OBS_REMARKS_H
